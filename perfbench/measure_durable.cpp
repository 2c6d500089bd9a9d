// measure_durable: the measurement layers used the durable way. Three
// vantages over a 100-site list on 2 threads, under uniform:0.05
// substrate faults and a CDN-outage chaos window, with a checkpoint and
// every artifact (per-vantage CSVs, metrics, trace, report, consensus).
// The finished checkpoint is then read back and resumed once; the
// resume must run zero loads and re-emit every artifact byte for byte.
// Retries, breakers and writes beside reads dominate here.
//
// Traced iterations time the public calls — the campaign run, the
// artifact writers, the checkpoint read, the report and consensus
// builders, the resume — and take the layer counts from the run's own
// metrics artifact.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/analyses.h"
#include "core/serialization.h"
#include "core/vantage.h"
#include "net/faults.h"
#include "net/outage.h"
#include "net/vantage_profile.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace hispar;

constexpr std::size_t kJobs = 2;
constexpr std::size_t kShards = 8;
constexpr std::size_t kVantages = 3;
constexpr const char* kFaults = "uniform:0.05";
constexpr const char* kChaos =
    "cdn:provider=2,start_s=120,dur_s=300,kind=http_5xx,sev=0.9";

// Artifacts one emission writes, relative to its directory.
const std::vector<std::string>& artifact_names() {
  static const std::vector<std::string> names{
      "measure.csv", "measure-v1.csv", "measure-v2.csv", "metrics.json",
      "trace.json",  "report.json",    "consensus.csv"};
  return names;
}

class MeasureDurable final : public Workload {
 public:
  std::size_t jobs() const override { return kJobs; }

  void setup(std::uint64_t seed, const Scale& scale) override {
    world_ = make_world(seed, scale, scale.durable_sites);
    config_ = core::VantageCampaignConfig{};
    config_.base.landing_loads = scale.landing_loads;
    config_.base.seed = seed;
    config_.base.jobs = kJobs;
    config_.base.shards = kShards;
    config_.base.fault_profile = net::FaultProfile::parse(kFaults);
    config_.base.chaos = net::OutageSchedule::parse(kChaos);
    config_.base.observability.enabled = true;
    config_.profiles = net::VantageProfile::default_vantages(kVantages);
  }

  Result run(const std::string& dir) override { return iterate(dir, nullptr); }

  Result run_traced(const std::string& dir, SpanRecorder& spans) override {
    return iterate(dir, &spans);
  }

 private:
  // One iteration: the campaign and its artifacts, the checkpoint read
  // back, the resume. Each phase releases its memory before the next,
  // as the separate `hispar measure` and `--resume` processes would, so
  // peak_rss_mb is the largest phase rather than their sum. Gate
  // bookkeeping runs with the meter stopped.
  Result iterate(const std::string& dir, SpanRecorder* spans) {
    core::VantageCampaignConfig config = config_;
    config.checkpoint_path = dir + "/campaign.ckpt";
    const std::string resume_dir = dir + "/resume";
    std::filesystem::create_directories(resume_dir);

    Result result;
    Meter meter;
    Meter resume;
    std::uint64_t digest = 0;
    std::uint64_t checkpoint_digest = 0;
    std::size_t pending_cells = 0;
    std::string text, resumed_text;
    meter.start();
    {
      Span root(spans, Layer::kWorkload, "workload");
      {
        core::VantageCampaign campaign(*world_.web, config);
        std::vector<std::vector<core::SiteObservation>> per_vantage;
        {
          Span span(spans, Layer::kCore, "core.campaign");
          per_vantage = campaign.run(world_.list).observations;
        }
        text = emit(dir, per_vantage, campaign.telemetry(), spans);
        meter.stop();
        for (const auto& sites : per_vantage) count_fetches(sites, result);
        add_telemetry_counts(campaign.telemetry(), result);
        digest = campaign.checkpoint_digest(world_.list);
        meter.start();
      }

      // Read the finished checkpoint back: every (vantage, shard) cell
      // must be on disk, so the resume below has nothing left to load.
      {
        std::string bytes;
        core::VantageCheckpoint checkpoint;
        {
          Span span(spans, Layer::kSerialization,
                    "serialization.checkpoint_read");
          std::ifstream in(config.checkpoint_path, std::ios::binary);
          bytes.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
          std::istringstream stream(bytes);
          checkpoint = core::read_vantage_checkpoint(stream);
        }
        meter.stop();
        checkpoint_digest = util::fnv1a(bytes);
        pending_cells = pending(checkpoint, digest, result);
        meter.start();
      }

      resume.start();
      {
        Span span(spans, Layer::kSerialization, "serialization.resume");
        core::VantageCampaign resumed(*world_.web, config);
        const auto again = resumed.run(world_.list).observations;
        resumed_text = emit(resume_dir, again, resumed.telemetry(), spans);
      }
      resume.stop();
    }
    meter.stop();

    result.wall_s = meter.wall_s();
    result.cpu_s = meter.cpu_s();
    result.resume_s = resume.wall_s();
    for (const auto& name : artifact_names()) {
      result.digests[name] = file_digest(dir + "/" + name);
      if (file_digest(resume_dir + "/" + name) != result.digests[name])
        result.errors.push_back("resume re-emitted a different " + name);
    }
    result.digests["summary"] = util::fnv1a(text);
    if (resumed_text != text)
      result.errors.push_back("resume printed a different summary");
    result.digests["campaign.ckpt"] = checkpoint_digest;
    if (file_digest(config.checkpoint_path) != checkpoint_digest)
      result.errors.push_back("resume rewrote a different checkpoint");
    if (pending_cells != 0)
      result.errors.push_back("finished checkpoint leaves " +
                              std::to_string(pending_cells) +
                              " (vantage, shard) cells for the resume to load");
    const std::uint64_t checkpoint_bytes = file_size(config.checkpoint_path);
    const std::uint64_t trace_bytes = file_size(dir + "/trace.json");
    result.counters["checkpoint_bytes"] = checkpoint_bytes;
    result.counters["trace_bytes"] = trace_bytes;
    result.counters["resume_pending_cells"] = pending_cells;
    result.layer["serialization.checkpoint_bytes"] =
        static_cast<double>(checkpoint_bytes);
    result.layer["obs.trace_bytes"] = static_cast<double>(trace_bytes);
    return result;
  }

  // Layer counts from the run's own metrics artifact, cross-checked
  // against the loads the fetch outcomes count.
  static void add_telemetry_counts(const obs::RunTelemetry& telemetry,
                                   Result& result) {
    const obs::MetricsRegistry& m = telemetry.metrics;
    const auto count = [&](const char* name) {
      return static_cast<double>(m.counter_or(name));
    };
    std::uint64_t faults = 0;
    for (const auto& [name, value] : m.counters())
      if (name.rfind("faults.injected.", 0) == 0 ||
          name.rfind("chaos.injected.", 0) == 0)
        faults += value;
    auto& layer = result.layer;
    layer["browser.loads"] = count("loader.loads");
    layer["browser.har_entries"] = count("loader.objects");
    layer["browser.object_retries"] = count("loader.object_retries");
    layer["cdn.requests"] = count("cdn.requests");
    layer["cdn.edge_hit_ratio"] =
        ratio(count("cdn.edge_hits"), count("cdn.requests"));
    layer["cdn.lru_evictions"] = count("cdn.lru_evictions");
    layer["net.dns_queries"] = count("dns.queries");
    layer["net.dns_hit_ratio"] =
        ratio(count("dns.cache_hits"), count("dns.queries"));
    layer["net.faults_injected"] = static_cast<double>(faults);
    layer["net.breaker_denials"] = count("breaker.denials");
    layer["obs.spans"] = static_cast<double>(telemetry.spans.size());
    result.counters["browser.har_entries"] = m.counter_or("loader.objects");
    result.counters["net.faults_injected"] = faults;
    result.counters["net.breaker_denials"] = m.counter_or("breaker.denials");
    result.counters["spans"] = telemetry.spans.size();
    if (m.counter_or("loader.loads") != result.ops)
      result.errors.push_back(
          "metrics artifact counts " + std::to_string(m.counter_or("loader.loads")) +
          " loads, the fetch outcomes " + std::to_string(result.ops));
  }

  // Cells of the campaign the checkpoint does not hold (a whole-vantage
  // block covers all of that vantage's shards).
  std::size_t pending(const core::VantageCheckpoint& checkpoint,
                      std::uint64_t digest, Result& result) const {
    if (checkpoint.config_digest != digest)
      result.errors.push_back("checkpoint digest does not match the campaign");
    std::vector<std::vector<char>> done(kVantages,
                                        std::vector<char>(kShards, 0));
    for (const auto& block : checkpoint.vantages)
      if (block.vantage < kVantages) done[block.vantage].assign(kShards, 1);
    for (const auto& block : checkpoint.shards)
      if (block.vantage < kVantages && block.shard < kShards)
        done[block.vantage][block.shard] = 1;
    std::size_t missing = 0;
    for (const auto& vantage : done)
      for (char cell : vantage) missing += cell == 0 ? 1 : 0;
    return missing;
  }

  // What `hispar measure --vantages 3` writes after the campaign.
  // Returns the printed summary and headline contrast for the gate.
  std::string emit(const std::string& dir,
            const std::vector<std::vector<core::SiteObservation>>& per_vantage,
            const obs::RunTelemetry& telemetry, SpanRecorder* spans) const {
    const auto write = [](const std::string& path, const auto& body) {
      std::ofstream out(path);
      body(out);
      out.close();
      if (!out) throw std::runtime_error("cannot write " + path);
    };
    {
      Span span(spans, Layer::kSerialization, "serialization.csv_write");
      for (std::size_t v = 0; v < per_vantage.size(); ++v)
        write(dir + "/measure" + (v == 0 ? "" : "-v" + std::to_string(v)) + ".csv",
              [&](std::ostream& out) {
                core::write_measure_csv(out, per_vantage[v]);
              });
    }
    obs::VantageReport report;
    std::ostringstream text;
    text.precision(17);
    {
      Span span(spans, Layer::kObs, "obs.report");
      report = core::build_vantage_report(per_vantage, config_.profiles,
                                          telemetry);
      text << obs::vantage_summary_line(report) << '\n';
    }
    {
      Span span(spans, Layer::kObs, "obs.metrics_write");
      write(dir + "/metrics.json",
            [&](std::ostream& out) { telemetry.metrics.write_json(out); });
    }
    {
      Span span(spans, Layer::kObs, "obs.trace_write");
      write(dir + "/trace.json", [&](std::ostream& out) {
        obs::write_chrome_trace(out, telemetry.spans);
      });
    }
    {
      Span span(spans, Layer::kObs, "obs.report");
      write(dir + "/report.json", [&](std::ostream& out) {
        obs::write_vantage_report_json(out, report);
      });
    }
    {
      Span span(spans, Layer::kAnalyses, "analyses.consensus");
      write(dir + "/consensus.csv", [&](std::ostream& out) {
        core::write_vantage_consensus_csv(out, per_vantage);
      });
    }
    {
      Span span(spans, Layer::kAnalyses, "analyses.compare");
      const auto size = core::compare_metric(per_vantage.front(), core::metric::bytes);
      const auto plt = core::compare_metric(per_vantage.front(), core::metric::plt_ms);
      text << size.fraction_landing_greater() << ' '
           << plt.fraction_landing_greater() << '\n';
    }
    return text.str();
  }

  World world_;
  core::VantageCampaignConfig config_;
};

}  // namespace

std::unique_ptr<Workload> make_measure_durable() {
  return std::make_unique<MeasureDurable>();
}

}  // namespace perfbench
