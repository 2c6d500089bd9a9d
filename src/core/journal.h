// The checkpoint journal shared by every resumable engine.
//
// `MeasurementCampaign`, `ListBuildCampaign`, `SessionCampaign` and
// `VantageCampaign` resume a killed run the same way (DESIGN.md §9,
// "Checkpoint journal"): a `<tag>,v1,<config digest>` header, blocks
// appended under a lock and flushed one at a time, a torn tail dropped
// on resume by rewriting the parsed state through a temp file + rename,
// and — for the vantage engine — a final atomic compaction. The journal
// owns that discipline; each engine keeps only its splice loop and its
// block codec (the append_* / read_*_checkpoint pairs in
// core/serialization.h).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

namespace hispar::core {

// Writes one or more checkpoint blocks to a stream.
using BlockWriter = std::function<void(std::ostream&)>;

// `&value`, or nullptr when `value` is empty: the optional telemetry and
// breaker arguments of the append_* block writers.
template <typename T>
const T* if_present(const T& value) {
  return value.empty() ? nullptr : &value;
}

// Writes `write`'s output to `path + ".tmp"` and renames it over `path`.
// The rename is atomic on POSIX, so a kill at any point leaves either the
// old complete file or the new one — never a truncated mix that loses
// blocks which were already durable. Throws std::runtime_error
// "<context>: cannot write checkpoint <path>" when the temp file cannot
// be written, and a rename error when it cannot be renamed; a stale .tmp
// from an earlier kill is simply overwritten.
void replace_file_atomically(const std::string& context,
                             const std::string& path, const BlockWriter& write);

class CheckpointJournal {
 public:
  // `context` prefixes every error ("campaign", "list build", ...), `tag`
  // is the format's header tag (core::kCampaignCheckpointTag, ...). An
  // empty `path` makes the journal inactive: open() finds nothing and
  // rewrite/append/compact do nothing.
  CheckpointJournal(std::string context, std::string tag, std::string path);

  // Reads the existing file, if any, through `read` (one of the
  // read_*_checkpoint functions) and refuses one written under another
  // config digest with "<context>: checkpoint was written by a different
  // <what>". Returns nullopt when inactive or when no file exists yet.
  // `digest()` — called only when active, since hashing the list is not
  // free — heads every file rewrite() and compact() write.
  template <typename Checkpoint, typename Digest>
  std::optional<Checkpoint> open(Checkpoint (*read)(std::istream&),
                                 const Digest& digest,
                                 const std::string& what) {
    if (path_.empty()) return std::nullopt;
    digest_ = digest();
    std::ifstream existing(path_);
    if (!existing) return std::nullopt;
    Checkpoint checkpoint = read(existing);
    if (checkpoint.config_digest != digest_)
      throw std::runtime_error(context_ +
                               ": checkpoint was written by a different " +
                               what);
    return checkpoint;
  }

  // compact(blocks) — the parsed state, which drops any torn tail a
  // kill left — then reopens the file for append.
  void rewrite(const BlockWriter& blocks);

  // Writes one block under the lock and flushes it, so a kill tears at
  // most that block. Safe to call from concurrent workers. Throws
  // "<context>: cannot write checkpoint <path>" when the write fails
  // (disk full, file-size limit): a run never reports success with
  // blocks missing from its checkpoint.
  void append(const BlockWriter& block);

  // Closes the append stream and atomically rewrites the file as the
  // header plus `blocks`; a kill mid-compaction leaves the complete
  // uncompacted file.
  void compact(const BlockWriter& blocks);

 private:
  std::string context_;
  std::string tag_;
  std::string path_;
  std::uint64_t digest_ = 0;
  std::ofstream out_;
  std::mutex mutex_;
};

}  // namespace hispar::core
