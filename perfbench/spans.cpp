#include <atomic>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {
namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<std::uint64_t> next_generation{1};

// The calling thread's buffer in the recorder of generation `generation`.
// A thread that outlives one recorder and meets the next re-registers.
struct ThreadCache {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache tl_cache;

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kWorkload: return "workload";
    case Layer::kWait: return "wait";
    case Layer::kWeb: return "web";
    case Layer::kBrowser: return "browser";
    case Layer::kDetect: return "detect";
    case Layer::kCore: return "core";
    case Layer::kSerialization: return "serialization";
    case Layer::kObs: return "obs";
    case Layer::kAnalyses: return "analyses";
    case Layer::kSearch: return "search";
    case Layer::kListBuild: return "list_build";
  }
  return "unknown";
}

SpanRecorder::SpanRecorder()
    : generation_(next_generation.fetch_add(1)), origin_ns_(steady_ns()) {}

SpanRecorder::~SpanRecorder() = default;

SpanRecorder::Buffer* SpanRecorder::find_local() const {
  if (tl_cache.generation != generation_) return nullptr;
  return static_cast<Buffer*>(tl_cache.buffer);
}

SpanRecorder::Buffer& SpanRecorder::local() {
  if (Buffer* buffer = find_local()) return *buffer;
  const std::lock_guard<std::mutex> lock(mutex_);
  auto buffer = std::make_unique<Buffer>();
  buffer->thread = static_cast<std::uint32_t>(buffers_.size());
  buffer->spans.reserve(1024);
  tl_cache.generation = generation_;
  tl_cache.buffer = buffer.get();
  buffers_.push_back(std::move(buffer));
  return *buffers_.back();
}

void SpanRecorder::begin(Layer layer, const char* name, std::uint64_t cause) {
  Buffer& buffer = local();
  SpanRecord span;
  span.name = name;
  span.layer = layer;
  span.thread = buffer.thread;
  if (!buffer.open.empty()) span.parent = buffer.open.back();
  span.cause = cause;
  const auto index = static_cast<std::uint32_t>(buffer.spans.size());
  span.start_ns = steady_ns() - origin_ns_;
  buffer.spans.push_back(span);
  buffer.open.push_back(index);
}

void SpanRecorder::end() {
  const std::int64_t end_ns = steady_ns() - origin_ns_;
  Buffer& buffer = local();
  if (buffer.open.empty()) return;  // called from ~Span: must not throw
  buffer.spans[buffer.open.back()].end_ns = end_ns;
  buffer.open.pop_back();
}

std::uint64_t SpanRecorder::current() const {
  const Buffer* buffer = find_local();
  if (buffer == nullptr || buffer->open.empty()) return SpanRecord::kNoSpan;
  return (static_cast<std::uint64_t>(buffer->thread) << 32) |
         buffer->open.back();
}

SpanRecorder::Summary SpanRecorder::summarize() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Summary summary;
  for (const auto& buffer : buffers_) {
    const auto& spans = buffer->spans;
    std::vector<std::int64_t> covered(spans.size(), 0);
    for (const auto& span : spans)
      if (span.parent != ~std::uint32_t{0})
        covered[span.parent] += span.end_ns - span.start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      const double duration = 1e-9 * static_cast<double>(span.end_ns -
                                                         span.start_ns);
      const double self =
          1e-9 * static_cast<double>(span.end_ns - span.start_ns -
                                     covered[i]);
      summary.self_by_name[span.name] += self;
      summary.self_by_layer[span.layer] += self;
      summary.durations_by_name[span.name].push_back(duration);
      if (span.layer != Layer::kWait) summary.busy_s += self;
      if (span.layer != Layer::kWait && span.layer != Layer::kWorkload)
        summary.attributed_s += self;
      ++summary.spans;
    }
  }
  return summary;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& buffer : buffers_) {
    for (const auto& span : buffer->spans) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
          << "\",\"cat\":\"" << layer_name(span.layer)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
          << ",\"ts\":" << span.start_ns / 1000
          << ",\"dur\":" << (span.end_ns - span.start_ns) / 1000;
      if (span.cause != SpanRecord::kNoSpan)
        out << ",\"args\":{\"cause\":\"" << (span.cause >> 32) << ':'
            << (span.cause & 0xffffffffu) << "\"}";
      out << '}';
      first = false;
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!out) throw std::runtime_error("cannot write span trace " + path);
}

}  // namespace perfbench
