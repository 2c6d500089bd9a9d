#include "core/journal.h"

#include <cstdio>
#include <utility>

#include "core/serialization.h"

namespace hispar::core {

namespace {

[[noreturn]] void cannot_write(const std::string& context,
                               const std::string& path) {
  throw std::runtime_error(context + ": cannot write checkpoint " + path);
}

}  // namespace

void replace_file_atomically(const std::string& context,
                             const std::string& path,
                             const BlockWriter& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (out) write(out);
    if (!out.flush()) cannot_write(context, path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error(context + ": cannot rename " + tmp + " over " +
                             path);
}

CheckpointJournal::CheckpointJournal(std::string context, std::string tag,
                                     std::string path)
    : context_(std::move(context)),
      tag_(std::move(tag)),
      path_(std::move(path)) {}

void CheckpointJournal::rewrite(const BlockWriter& blocks) {
  if (path_.empty()) return;
  compact(blocks);
  out_.open(path_, std::ios::app);
  if (!out_)
    throw std::runtime_error(context_ + ": cannot open checkpoint " + path_);
}

void CheckpointJournal::append(const BlockWriter& block) {
  if (path_.empty()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  block(out_);
  if (!out_.flush()) cannot_write(context_, path_);
}

void CheckpointJournal::compact(const BlockWriter& blocks) {
  if (path_.empty()) return;
  out_.close();
  replace_file_atomically(context_, path_, [&](std::ostream& out) {
    write_checkpoint_header(out, tag_, digest_);
    blocks(out);
  });
}

}  // namespace hispar::core
