// Shared pieces of the Hispar benchmark binary: workload input sizes,
// the synthetic world a workload runs on, the timed-phase meter, the
// span recorder of traced runs and the per-iteration result.
//
// The benchmark only calls the library's public API; it never reaches into
// src/. See README.md in this directory for the workloads and metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/hispar.h"
#include "core/measurement.h"
#include "search/engine.h"
#include "toplist/providers.h"
#include "web/generator.h"

namespace perfbench {

// Input sizes. "full" is what BENCHMARK.json runs; "tiny" keeps the
// self-test (selftest.py) to a few seconds.
struct Scale {
  std::string name;
  std::size_t universe = 0;       // synthetic-web site count
  std::size_t cold_sites = 0;     // measure_cold list size
  std::size_t durable_sites = 0;  // measure_durable list size
  std::size_t build_sites = 0;    // build_weekly list size
  std::size_t urls_per_site = 0;  // 1 landing + internals
  int landing_loads = 0;
  // setup_s is the median of at least setup_repeats set-ups spanning at
  // least setup_min_s seconds (a cheap set-up repeats more often).
  std::size_t setup_repeats = 0;
  double setup_min_s = 0.0;
};

// Throws std::invalid_argument for an unknown name.
const Scale& scale_named(const std::string& name);

// The generated inputs: web, top lists and search engine from the seed,
// plus (for measure workloads) the list the campaign runs on.
struct World {
  std::unique_ptr<hispar::web::SyntheticWeb> web;
  std::unique_ptr<hispar::toplist::TopListFactory> toplists;
  std::unique_ptr<hispar::search::SearchEngine> engine;
  hispar::core::HisparList list;
};

// Builds the world; list_sites == 0 skips the list.
World make_world(std::uint64_t seed, const Scale& scale,
                 std::size_t list_sites);

// Wall and process CPU (user + sys, every thread) accumulated over the
// timed phases of one iteration.
class Meter {
 public:
  void start();
  void stop();
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }

 private:
  double wall_start_ = 0.0;
  double cpu_start_ = 0.0;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
};

double now_s();          // steady clock
double process_cpu_s();  // getrusage(RUSAGE_SELF) user + sys

// Layers of the hispar stack a span is attributed to. kWorkload marks
// the unattributed root of a traced iteration and kWait a thread parked
// on a worker pool; neither counts as layer time.
enum class Layer : std::uint8_t {
  kWorkload,
  kWait,
  kWeb,
  kBrowser,
  kDetect,
  kCore,
  kSerialization,
  kObs,
  kAnalyses,
  kSearch,
  kListBuild,
};
const char* layer_name(Layer layer);

// One span: a timed call into a layer. `parent` is the enclosing span on
// the same thread; `cause` is the span on another thread that started
// this one (the pool span that spawned a worker unit), kNoSpan if none.
struct SpanRecord {
  static constexpr std::uint64_t kNoSpan = ~std::uint64_t{0};
  const char* name = "";
  Layer layer = Layer::kWorkload;
  std::uint32_t thread = 0;
  std::uint32_t parent = ~std::uint32_t{0};  // index in the thread buffer
  std::uint64_t cause = kNoSpan;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Records spans in per-thread buffers (no locking on the hot path; a
// mutex guards only buffer registration) and keeps them in memory until
// the run ends. Span ids are (thread << 32 | index).
class SpanRecorder {
 public:
  SpanRecorder();
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void begin(Layer layer, const char* name,
             std::uint64_t cause = SpanRecord::kNoSpan);
  void end();
  // Innermost open span on the calling thread (kNoSpan when none).
  std::uint64_t current() const;

  // Per-name and per-layer self time: a span's duration minus the part
  // its same-thread children cover.
  struct Summary {
    std::map<std::string, double> self_by_name;
    std::map<Layer, double> self_by_layer;
    std::map<std::string, std::vector<double>> durations_by_name;
    double busy_s = 0.0;        // thread time outside kWait spans
    double attributed_s = 0.0;  // part of busy_s inside a layer span
    std::uint64_t spans = 0;
  };
  Summary summarize() const;

  // Chrome trace_event JSON ("X" events, µs) of every span.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::uint32_t> open;
  };
  Buffer& local();
  Buffer* find_local() const;

  std::uint64_t generation_;  // distinguishes recorders in thread caches
  std::int64_t origin_ns_;
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span; a null recorder makes it a no-op, so one code path serves
// traced and untraced iterations.
class Span {
 public:
  Span(SpanRecorder* recorder, Layer layer, const char* name,
       std::uint64_t cause = SpanRecord::kNoSpan)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->begin(layer, name, cause);
  }
  ~Span() {
    if (recorder_ != nullptr) recorder_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
};

// What one iteration produced. Digests are FNV-1a of artifact bytes;
// counters are exact, machine-independent work counts; `layer` holds
// the per-layer counts and ratios a traced iteration measures.
struct Result {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double resume_s = 0.0;        // measure_durable only
  std::uint64_t ops = 0;        // page loads (retries included) or queries
  std::uint64_t attempted = 0;  // operations fail_ratio counts over
  std::uint64_t failed = 0;     // of those, failed in the simulation
  std::map<std::string, std::uint64_t> digests;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> layer;
  std::vector<std::string> errors;  // correctness-gate findings
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t jobs() const = 0;
  // Builds the inputs; timed by the caller as setup_s.
  virtual void setup(std::uint64_t seed, const Scale& scale) = 0;
  // One iteration with tracing off, writing its artifacts under `dir`.
  virtual Result run(const std::string& dir) = 0;
  // The same work replayed through public calls, each wrapped in a span.
  // Its artifacts must be byte-identical to run()'s.
  virtual Result run_traced(const std::string& dir,
                            SpanRecorder& spans) = 0;
};

std::unique_ptr<Workload> make_measure_cold();
std::unique_ptr<Workload> make_build_weekly();
std::unique_ptr<Workload> make_measure_durable();

// Helpers shared by the workloads.
std::uint64_t file_digest(const std::string& path);
std::uint64_t file_size(const std::string& path);
// Keeps the ratio's zero-denominator case at 0 instead of NaN.
double ratio(double num, double den);
// Adds a measure campaign's loads (retries included), page fetches and
// failed fetches to `result` (ops, attempted, failed and counters).
void count_fetches(const std::vector<hispar::core::SiteObservation>& sites,
                   Result& result);

}  // namespace perfbench
