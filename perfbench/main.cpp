// hispar_perfbench — runs one benchmark workload and prints its metrics.
//
//   hispar_perfbench --workload measure_cold|build_weekly|measure_durable
//                    --seed N --seconds S --trace 0|1
//                    [--scale full|tiny] [--workdir DIR] [--results-dir DIR]
//                    [--expected FILE] [--git-commit SHA] [--emit-expected]
//
// --trace 0 times untraced iterations and prints the end-to-end metrics;
// --trace 1 alternates untraced and traced iterations and prints the
// per-layer metrics. Every run passes a correctness gate (README.md).
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 gate passed, 1 gate failed (result still printed),
// 2 usage or setup error (no result).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string scale = "full";
  std::string workdir;
  std::string results_dir;
  std::string expected_path;
  std::string git_commit = "unknown";
  bool emit_expected = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json (selftest.py checks the two agree).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},     {"wall_s", "s"},       {"cpu_s", "s"},
    {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"web.page_gen_s", "s"},
    {"web.pages_generated", "count"},
    {"web.page_cache_hit_ratio", "ratio"},
    {"browser.load_s", "s"},
    {"browser.loads", "count"},
    {"browser.har_entries", "count"},
    {"browser.object_retries", "count"},
    {"cdn.requests", "count"},
    {"cdn.edge_hit_ratio", "ratio"},
    {"cdn.lru_evictions", "count"},
    {"net.dns_queries", "count"},
    {"net.dns_hit_ratio", "ratio"},
    {"net.faults_injected", "count"},
    {"net.breaker_denials", "count"},
    {"detect.extract_s", "s"},
    {"detect.url_memo_hit_ratio", "ratio"},
    {"detect.fetch_memo_hit_ratio", "ratio"},
    {"detect.host_memo_hit_ratio", "ratio"},
    {"detect.memo_entries", "count"},
    {"core.median_s", "s"},
    {"core.self_s", "s"},
    {"core.shard_busy_s.max", "s"},
    {"core.shard_imbalance", "ratio"},
    {"core.pool_busy_ratio", "ratio"},
    {"serialization.checkpoint_bytes", "bytes"},
    {"serialization.checkpoint_read_s", "s"},
    {"serialization.csv_write_s", "s"},
    {"obs.trace_write_s", "s"},
    {"obs.report_s", "s"},
    {"obs.trace_bytes", "bytes"},
    {"obs.spans", "count"},
    {"analyses.s", "s"},
    {"search.site_query_s", "s"},
    {"search.queries", "count"},
    {"list_build.self_s", "s"},
    {"list_build.speculative_ratio", "ratio"},
    {"list_build.pool_busy_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage_ratio", "ratio"},
    {"trace.spans", "count"},
    {"loads_per_s", "1/s"},
    {"queries_per_s", "1/s"},
    {"resume_s", "s"},
    {"fail_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "hispar_perfbench: " << message << "\n"
            << "usage: hispar_perfbench --workload measure_cold|build_weekly|"
               "measure_durable --seed N --seconds S --trace 0|1 "
               "[--scale full|tiny] [--workdir DIR] [--results-dir DIR] "
               "[--expected FILE] [--git-commit SHA] [--emit-expected]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--emit-expected") {
      options.emit_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--scale") options.scale = value;
      else if (flag == "--workdir") options.workdir = value;
      else if (flag == "--results-dir") options.results_dir = value;
      else if (flag == "--expected") options.expected_path = value;
      else if (flag == "--git-commit") options.git_commit = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0) || options.seconds > 150.0)
    usage("--seconds must be in (0, 150]");
  return options;
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + '"';
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return os.str();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- host and build context ---------------------------------------------

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::vector<std::string> sanitizers() {
  std::vector<std::string> found;
#if defined(__SANITIZE_ADDRESS__)
  found.push_back("address");
#endif
#if defined(__SANITIZE_THREAD__)
  found.push_back("thread");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(__SANITIZE_ADDRESS__)
  found.push_back("address");
#endif
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
  found.push_back("thread");
#endif
#endif
  if (found.empty() &&
      std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") != std::string::npos)
    found.push_back("flags");
  return found;
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string context_json(const Options& options, std::size_t jobs,
                         bool committed) {
  const unsigned hardware = std::thread::hardware_concurrency();
  const std::size_t cpus = usable_cpus();
  std::vector<std::string> warnings;
  if (!optimized_build())
    warnings.push_back("non-optimized build: timings are not comparable");
  const auto found = sanitizers();
  if (!found.empty())
    warnings.push_back("sanitizer build: timings are not comparable");
  if (cpus < jobs)
    warnings.push_back("fewer usable CPUs (" + std::to_string(cpus) +
                       ") than workload threads (" + std::to_string(jobs) +
                       "): parallel results measure the runner");
  std::ostringstream os;
  os << "{\"workload\":" << quote(options.workload)
     << ",\"scale\":" << quote(options.scale) << ",\"seed\":" << options.seed
     << ",\"seconds\":" << number(options.seconds)
     << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"jobs\":" << jobs
     << ",\"hardware_threads\":" << hardware << ",\"nproc\":" << cpus
     << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE)
     << ",\"cxx_flags\":" << quote(PERFBENCH_CXX_FLAGS)
     << ",\"compiler\":" << quote(compiler())
     << ",\"optimized\":" << (optimized_build() ? "true" : "false")
     << ",\"sanitizers\":[";
  for (std::size_t i = 0; i < found.size(); ++i)
    os << (i ? "," : "") << quote(found[i]);
  os << "],\"git_commit\":" << quote(options.git_commit)
     << ",\"digests\":" << quote(committed ? "committed" : "held-out")
     << ",\"warnings\":[";
  for (std::size_t i = 0; i < warnings.size(); ++i)
    os << (i ? "," : "") << quote(warnings[i]);
  os << "]}";
  return os.str();
}

// --- committed expectations ---------------------------------------------

// expected.txt lines: "<workload> <scale> <seed> digest|counter <name>
// <value>"; '#' starts a comment. Digests are 16 hex digits.
struct Expected {
  std::map<std::string, std::uint64_t> digests;
  std::map<std::string, std::uint64_t> counters;
  bool empty() const { return digests.empty() && counters.empty(); }
};

Expected load_expected(const Options& options) {
  Expected expected;
  if (options.expected_path.empty()) return expected;
  std::ifstream in(options.expected_path);
  if (!in) usage("cannot read --expected " + options.expected_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, scale, kind, name, value;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> scale >> seed >> kind >> name >> value))
      usage("malformed expectation: " + line);
    if (workload != options.workload || scale != options.scale ||
        seed != options.seed)
      continue;
    if (kind == "digest")
      expected.digests[name] = std::stoull(value, nullptr, 16);
    else if (kind == "counter")
      expected.counters[name] = std::stoull(value);
    else
      usage("malformed expectation: " + line);
  }
  return expected;
}

// --- the gate -----------------------------------------------------------

// Compares `got` against `want` on the keys both hold.
void compare(const std::map<std::string, std::uint64_t>& want,
             const std::map<std::string, std::uint64_t>& got,
             const std::string& what, bool as_hex,
             std::vector<std::string>& errors) {
  for (const auto& [name, value] : got) {
    const auto it = want.find(name);
    if (it == want.end() || it->second == value) continue;
    errors.push_back(what + ": " + name + " is " +
                     (as_hex ? hex(value) : std::to_string(value)) +
                     ", expected " +
                     (as_hex ? hex(it->second) : std::to_string(it->second)));
  }
}

struct Run {
  std::vector<double> setup_s;
  std::vector<Result> untraced;
  std::vector<Result> traced;
  std::vector<SpanRecorder::Summary> summaries;
  std::vector<std::string> errors;
};

void gate(const Run& run, const Expected& expected,
          std::vector<std::string>& errors) {
  if (run.untraced.empty()) return;
  const Result& first = run.untraced.front();
  const auto check = [&](const Result& result, const std::string& label) {
    for (const auto& error : result.errors) errors.push_back(label + ": " + error);
    compare(first.digests, result.digests, label + " vs the warm-up", true,
            errors);
    compare(first.counters, result.counters, label + " vs the warm-up", false,
            errors);
    compare(expected.digests, result.digests, label + " vs committed", true,
            errors);
    compare(expected.counters, result.counters, label + " vs committed", false,
            errors);
  };
  for (std::size_t i = 0; i < run.untraced.size(); ++i)
    check(run.untraced[i], "iteration " + std::to_string(i));
  for (std::size_t i = 0; i < run.traced.size(); ++i)
    check(run.traced[i], "traced replay " + std::to_string(i));
}

// --- metrics ------------------------------------------------------------

using Values = std::map<std::string, double>;

// Untraced iterations that count toward timings: all but the first,
// which warms the allocator and page cache (it still passes the gate).
std::vector<Result> timed(const Run& run) {
  if (run.untraced.size() < 2) return run.untraced;
  return {run.untraced.begin() + 1, run.untraced.end()};
}

Values end_to_end(const Run& run) {
  std::vector<double> wall, cpu, rate;
  for (const auto& r : timed(run)) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    rate.push_back(ratio(static_cast<double>(r.ops), r.wall_s));
  }
  return {{"setup_s", median(run.setup_s)},
          {"wall_s", median(wall)},
          {"cpu_s", median(cpu)},
          {"ops_per_s", median(rate)},
          {"peak_rss_mb", peak_rss_mb()}};
}

Values per_layer(const Run& run, const Workload& workload,
                 const std::string& name) {
  Values values;
  // Span-derived values: median over the traced iterations.
  std::map<std::string, std::vector<double>> samples;
  const auto sample = [&](const std::string& metric, double value) {
    samples[metric].push_back(value);
  };
  for (const auto& summary : run.summaries) {
    const auto self = [&](const char* span) -> std::optional<double> {
      const auto it = summary.self_by_name.find(span);
      if (it == summary.self_by_name.end()) return std::nullopt;
      return it->second;
    };
    const auto layer = [&](Layer l) -> std::optional<double> {
      const auto it = summary.self_by_layer.find(l);
      if (it == summary.self_by_layer.end()) return std::nullopt;
      return it->second;
    };
    const std::pair<const char*, const char*> by_span[] = {
        {"web.page_gen_s", "web.page_gen"},
        {"browser.load_s", "browser.load"},
        {"detect.extract_s", "detect.extract"},
        {"core.median_s", "core.median"},
        {"serialization.checkpoint_read_s", "serialization.checkpoint_read"},
        {"serialization.csv_write_s", "serialization.csv_write"},
        {"obs.trace_write_s", "obs.trace_write"},
        {"obs.report_s", "obs.report"},
        {"search.site_query_s", "search.site_query"},
    };
    for (const auto& [metric, span] : by_span)
      if (const auto v = self(span)) sample(metric, *v);
    if (const auto v = layer(Layer::kCore))
      sample("core.self_s", *v - self("core.median").value_or(0.0));
    if (const auto v = layer(Layer::kAnalyses)) sample("analyses.s", *v);
    if (const auto v = layer(Layer::kListBuild)) sample("list_build.self_s", *v);
    const auto shards = summary.durations_by_name.find("core.shard");
    if (shards != summary.durations_by_name.end() && !shards->second.empty()) {
      const auto& d = shards->second;
      const double max = *std::max_element(d.begin(), d.end());
      double mean = 0.0;
      for (double x : d) mean += x;
      mean /= static_cast<double>(d.size());
      sample("core.shard_busy_s.max", max);
      sample("core.shard_imbalance", ratio(max, mean));
    }
    sample("trace.coverage_ratio", ratio(summary.attributed_s, summary.busy_s));
    sample("trace.spans", static_cast<double>(summary.spans));
  }
  for (const auto& result : run.traced)
    for (const auto& [metric, value] : result.layer) sample(metric, value);
  for (const auto& [metric, list] : samples) values[metric] = median(list);

  // From the untraced iterations of the same run.
  std::vector<double> wall, traced_wall, busy, rate, resume;
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& r : timed(run)) {
    wall.push_back(r.wall_s);
    busy.push_back(ratio(r.cpu_s, r.wall_s * static_cast<double>(workload.jobs())));
    rate.push_back(ratio(static_cast<double>(r.ops), r.wall_s));
    resume.push_back(r.resume_s);
    attempted += r.attempted;
    failed += r.failed;
  }
  for (const auto& r : run.traced) traced_wall.push_back(r.wall_s);
  values["trace.overhead_ratio"] = ratio(median(traced_wall), median(wall));
  const bool build = name == "build_weekly";
  values[build ? "list_build.pool_busy_ratio" : "core.pool_busy_ratio"] =
      median(busy);
  values[build ? "queries_per_s" : "loads_per_s"] = median(rate);
  if (name == "measure_durable") values["resume_s"] = median(resume);
  values["fail_ratio"] = ratio(static_cast<double>(failed),
                               static_cast<double>(attempted));
  return values;
}

// --- the run ------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "measure_cold") return make_measure_cold();
  if (name == "build_weekly") return make_build_weekly();
  if (name == "measure_durable") return make_measure_durable();
  usage("unknown workload " + name);
}

std::string fresh_dir(const std::string& root, const std::string& leaf) {
  const std::filesystem::path dir = std::filesystem::path(root) / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

int run_main(const Options& options) {
  const Scale& scale = [&]() -> const Scale& {
    try {
      return scale_named(options.scale);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }();
  std::unique_ptr<Workload> workload = make_workload(options.workload);
  const Expected expected = load_expected(options);
  const std::string workdir =
      options.workdir.empty()
          ? (std::filesystem::temp_directory_path() /
             ("perfbench-" + std::to_string(getpid())))
                .string()
          : options.workdir;
  std::cout << "perfbench-context "
            << context_json(options, workload->jobs(), !expected.empty())
            << std::endl;

  Run run;
  std::uint64_t attempted = 0;
  std::optional<SpanRecorder> last_spans;
  try {
    const double setup_start = now_s();
    while (run.setup_s.size() < scale.setup_repeats ||
           now_s() - setup_start < scale.setup_min_s) {
      const double start = now_s();
      workload->setup(options.seed, scale);
      run.setup_s.push_back(now_s() - start);
    }
    // Untraced: a warm-up iteration, then at least two timed ones (the
    // repeatability check needs a pair) and as many more as fit in
    // --seconds. Traced: after the warm-up, untraced and traced
    // iterations alternate, at least one pair.
    run.untraced.push_back(workload->run(fresh_dir(workdir, "warmup")));
    attempted += run.untraced.back().attempted;
    const double deadline = now_s() + options.seconds;
    std::size_t iteration = 0;
    do {
      run.untraced.push_back(
          workload->run(fresh_dir(workdir, "it" + std::to_string(iteration))));
      attempted += run.untraced.back().attempted;
      if (options.trace) {
        last_spans.emplace();
        run.traced.push_back(workload->run_traced(
            fresh_dir(workdir, "tr" + std::to_string(iteration)), *last_spans));
        run.summaries.push_back(last_spans->summarize());
      }
      std::filesystem::remove_all(workdir);
      ++iteration;
    } while (now_s() < deadline || (!options.trace && iteration < 2));
  } catch (const std::exception& error) {
    run.errors.push_back(std::string("exception: ") + error.what());
  }
  std::filesystem::remove_all(workdir);
  gate(run, expected, run.errors);
  const bool correct = run.errors.empty();
  if (attempted == 0) attempted = 1;

  Values values = options.trace ? per_layer(run, *workload, options.workload)
                                : end_to_end(run);
  if (!correct) values["fail_ratio"] = 1.0;
  const auto& defs = options.trace ? kPerLayer : kEndToEnd;
  std::vector<std::string> unmeasured;
  for (const auto& def : defs)
    if (values.find(def.name) == values.end()) unmeasured.push_back(def.name);

  // Exact work counters and artifact digests of the first iteration.
  std::map<std::string, std::uint64_t> counters, digests;
  for (const auto* list : {&run.untraced, &run.traced})
    for (const auto& r : *list) {
      counters.insert(r.counters.begin(), r.counters.end());
      digests.insert(r.digests.begin(), r.digests.end());
    }
  std::ostringstream counter_json;
  counter_json << '{';
  bool first = true;
  for (const auto& [name, value] : counters) {
    counter_json << (first ? "" : ",") << quote(name) << ':' << value;
    first = false;
  }
  counter_json << '}';
  std::cout << "perfbench-counters " << counter_json.str() << "\n";
  for (const auto& error : run.errors)
    std::cout << "perfbench-gate-failure " << error << "\n";
  if (!unmeasured.empty()) {
    std::cout << "perfbench-unmeasured";
    for (const auto& name : unmeasured) std::cout << ' ' << name;
    std::cout << "  (not exercised or not observable on this workload; "
                 "reported as 0)\n";
  }
  if (options.emit_expected) {
    for (const auto& [name, value] : digests)
      std::cout << "perfbench-expected " << options.workload << ' '
                << options.scale << ' ' << options.seed << " digest " << name
                << ' ' << hex(value) << "\n";
    for (const auto& [name, value] : counters)
      std::cout << "perfbench-expected " << options.workload << ' '
                << options.scale << ' ' << options.seed << " counter " << name
                << ' ' << value << "\n";
  }

  std::ostringstream metrics;
  metrics << '{';
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    metrics << (i ? ", " : "") << quote(defs[i].name) << ": {\"value\": "
            << number(it == values.end() ? 0.0 : it->second)
            << ", \"unit\": " << quote(defs[i].unit) << '}';
  }
  metrics << '}';
  const std::string result_line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(correct ? 0 : attempted) +
      ", \"metrics\": " + metrics.str() + "}";

  if (!options.results_dir.empty()) {
    std::filesystem::create_directories(options.results_dir);
    const std::string stem = options.results_dir + "/" + options.workload +
                             "-" + options.scale + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0");
    std::ofstream out(stem + ".json");
    out << "{\"context\":"
        << context_json(options, workload->jobs(), !expected.empty())
        << ",\"setup_s\":[";
    for (std::size_t i = 0; i < run.setup_s.size(); ++i)
      out << (i ? "," : "") << number(run.setup_s[i]);
    out << "],\"iterations\":[";
    for (std::size_t i = 0; i < run.untraced.size(); ++i)
      out << (i ? "," : "") << "{\"wall_s\":" << number(run.untraced[i].wall_s)
          << ",\"cpu_s\":" << number(run.untraced[i].cpu_s)
          << ",\"ops\":" << run.untraced[i].ops << '}';
    out << "],\"counters\":" << counter_json.str() << ",\"digests\":{";
    first = true;
    for (const auto& [name, value] : digests) {
      out << (first ? "" : ",") << quote(name) << ':' << quote(hex(value));
      first = false;
    }
    out << "},\"errors\":[";
    for (std::size_t i = 0; i < run.errors.size(); ++i)
      out << (i ? "," : "") << quote(run.errors[i]);
    out << "],\"result\":" << result_line << "}\n";
    if (last_spans) last_spans->write_chrome_trace(stem + ".spans.json");
  }

  std::cout << result_line << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse_options(argc, argv);
  try {
    return perfbench::run_main(options);
  } catch (const std::exception& error) {
    std::cerr << "hispar_perfbench: " << error.what() << "\n";
    return 2;
  }
}
