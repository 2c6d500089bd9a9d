// measure_cold: the paper's §3.1 protocol as users run it — a
// fault-free, single-vantage cold campaign (landing page x10 plus the
// internal pages) over a 400-site list, 8 shards on 4 threads, telemetry
// off, no checkpoint, measure CSV written.
//
// The untraced iteration calls MeasurementCampaign::run. The traced
// iteration rebuilds every shard from public parts (LatencyModel,
// CdnHierarchy, CachingResolver, PageLoader, PageCache,
// DetectionScratch), follows run_shard's fetch order and RNG keying, and
// wraps each layer call in a span; its CSV must be byte-identical to
// the untraced one, which proves the spans cover the same work.
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "browser/adblock.h"
#include "browser/hb_detect.h"
#include "browser/loader.h"
#include "cdn/detection.h"
#include "cdn/hierarchy.h"
#include "core/analyses.h"
#include "core/measurement.h"
#include "core/parallel.h"
#include "core/serialization.h"
#include "net/dns.h"
#include "net/latency.h"
#include "obs/report.h"

namespace perfbench {
namespace {

using namespace hispar;

constexpr std::size_t kJobs = 4;
constexpr std::size_t kShards = 8;

// One shard's isolated substrate, as MeasurementCampaign builds it for a
// fault-free, chaos-free, telemetry-off campaign.
struct ShardReplay {
  ShardReplay(const web::SyntheticWeb& web, const core::CampaignConfig& config,
              std::size_t shard)
      : latency(config.latency),
        cdn(web.cdn_registry(), latency, cdn_config(config)),
        resolver(config.resolver, latency),
        loader(browser::LoaderEnv{&latency, &web.cdn_registry(), &cdn,
                                  &resolver, config.vantage, obs::ShardObs{},
                                  nullptr, config.cdn_edge_pin}),
        rng(util::Rng(config.seed).fork(static_cast<std::uint64_t>(shard))) {}

  static cdn::CdnHierarchyConfig cdn_config(const core::CampaignConfig& config) {
    cdn::CdnHierarchyConfig hierarchy;
    hierarchy.edge_pin = config.cdn_edge_pin;
    return hierarchy;
  }

  net::LatencyModel latency;
  cdn::CdnHierarchy cdn;
  net::CachingResolver resolver;
  browser::PageLoader loader;
  util::Rng rng;
  double clock_s = 0.0;
  web::PageCache pages;
  core::DetectionScratch detect;
  // Work counts gathered at the layer boundaries.
  std::uint64_t loads = 0;
  std::uint64_t har_entries = 0;
  std::uint64_t object_retries = 0;
  std::uint64_t breaker_denials = 0;
};

struct Detectors {
  explicit Detectors(const web::SyntheticWeb& web)
      : adblock(browser::AdBlocker::easylist_lite()),
        hb(browser::HbDetector::standard()),
        cdn(web.cdn_registry()) {}
  browser::AdBlocker adblock;
  browser::HbDetector hb;
  cdn::CdnDetector cdn;
};

class MeasureCold final : public Workload {
 public:
  std::size_t jobs() const override { return kJobs; }

  void setup(std::uint64_t seed, const Scale& scale) override {
    world_ = make_world(seed, scale, scale.cold_sites);
    config_ = core::CampaignConfig{};
    config_.landing_loads = scale.landing_loads;
    config_.seed = seed;
    config_.jobs = kJobs;
    config_.shards = kShards;
  }

  Result run(const std::string& dir) override {
    Meter meter;
    meter.start();
    core::MeasurementCampaign campaign(*world_.web, config_);
    const auto sites = campaign.run(world_.list);
    const std::string text =
        finish(sites, campaign.telemetry(), dir + "/measure.csv", nullptr);
    meter.stop();
    return collect(sites, text, dir, meter);
  }

  Result run_traced(const std::string& dir, SpanRecorder& spans) override {
    Meter meter;
    meter.start();
    std::vector<core::SiteObservation> sites;
    std::vector<std::unique_ptr<ShardReplay>> states(kShards);
    std::string text;
    {
      Span root(&spans, Layer::kWorkload, "workload");
      std::unique_ptr<Detectors> detectors;
      std::vector<std::vector<std::size_t>> shards;
      {
        Span init(&spans, Layer::kCore, "core.campaign_init");
        detectors = std::make_unique<Detectors>(*world_.web);
        shards = core::shard_indices(world_.list, kShards);
        sites.resize(world_.list.sets.size());
      }
      {
        Span pool(&spans, Layer::kWait, "core.pool");
        const std::uint64_t cause = spans.current();
        core::for_each_unit(kShards, kJobs, [&](std::size_t shard) {
          if (shards[shard].empty()) return;
          Span unit(&spans, Layer::kCore, "core.shard", cause);
          states[shard] =
              std::make_unique<ShardReplay>(*world_.web, config_, shard);
          replay_shard(*states[shard], *detectors, shards[shard], sites,
                       spans);
        });
      }
      text = finish(sites, obs::RunTelemetry{}, dir + "/measure.csv", &spans);
    }
    meter.stop();
    Result result = collect(sites, text, dir, meter);
    add_layer_counts(states, result);
    return result;
  }

 private:
  struct Fetch {
    core::PageMetrics metrics;
    core::FetchOutcome outcome;
    bool usable = false;
  };

  // MeasurementCampaign::fetch_page for a fault-free, chaos-free
  // campaign: one attempt, keyed Rng(seed).fork(shard).fork(domain)
  // .fork(page).fork(ordinal).
  Fetch fetch(ShardReplay& state, const Detectors& detectors,
              const web::WebSite& site, std::size_t page_index,
              int load_ordinal, SpanRecorder& spans) const {
    const web::WebPage* page = nullptr;
    {
      Span span(&spans, Layer::kWeb, "web.page_gen");
      page = &state.pages.get(site, page_index);
    }
    Fetch result;
    result.outcome.page_index = page_index;
    result.outcome.load_ordinal = load_ordinal;
    browser::LoadOptions options = config_.load_options;
    options.start_time_s = state.clock_s;
    options.page_timeout_ms = config_.page_timeout_s * 1000.0;
    state.clock_s += config_.inter_fetch_gap_s;
    const util::Rng load_rng =
        state.rng.fork(site.domain())
            .fork(page_index)
            .fork(static_cast<std::uint64_t>(load_ordinal));
    browser::LoadResult load;
    {
      Span span(&spans, Layer::kBrowser, "browser.load");
      load = state.loader.load(*page, load_rng, options);
    }
    ++state.loads;
    state.har_entries += load.har.entries.size();
    state.object_retries += static_cast<std::uint64_t>(load.object_retries);
    state.breaker_denials += static_cast<std::uint64_t>(load.breaker_denials);
    result.outcome.attempts = 1;
    result.outcome.status = load.status;
    result.outcome.failure = load.root_failure;
    result.outcome.failed_objects = load.failed_objects;
    result.outcome.breaker_denials = load.breaker_denials;
    if (load.status != browser::LoadStatus::kFailed) {
      Span span(&spans, Layer::kDetect, "detect.extract");
      result.metrics = core::extract_page_metrics(
          *page, load, state.detect, detectors.adblock, detectors.hb,
          detectors.cdn, config_.wait_sample_cap, nullptr);
      result.usable = true;
    }
    return result;
  }

  // MeasurementCampaign::run_shard without telemetry: landing rounds
  // interleaved over the shard's sites, then internal pages
  // position-interleaved, then per-site medians.
  void replay_shard(ShardReplay& state, const Detectors& detectors,
                    const std::vector<std::size_t>& positions,
                    std::vector<core::SiteObservation>& observations,
                    SpanRecorder& spans) const {
    const core::HisparList& list = world_.list;
    const auto site_of = [&](std::size_t position) -> const web::WebSite& {
      const web::WebSite* site = world_.web->find_site(list.sets[position].domain);
      if (site == nullptr)
        throw std::logic_error("replay: unknown domain " +
                               list.sets[position].domain);
      return *site;
    };
    std::vector<std::vector<core::PageMetrics>> landing(positions.size());
    for (int round = 0; round < config_.landing_loads; ++round) {
      for (std::size_t i = 0; i < positions.size(); ++i) {
        Fetch f = fetch(state, detectors, site_of(positions[i]), 0, round,
                        spans);
        core::SiteObservation& observation = observations[positions[i]];
        observation.total_retries += f.outcome.attempts - 1;
        observation.outcomes.push_back(f.outcome);
        if (f.usable) landing[i].push_back(std::move(f.metrics));
      }
    }
    std::size_t max_internal = 0;
    for (std::size_t position : positions)
      max_internal = std::max(max_internal, list.sets[position].page_indices.size());
    for (std::size_t page_pos = 1; page_pos < max_internal; ++page_pos) {
      for (std::size_t i = 0; i < positions.size(); ++i) {
        const core::UrlSet& set = list.sets[positions[i]];
        if (page_pos >= set.page_indices.size()) continue;
        Fetch f = fetch(state, detectors, site_of(positions[i]),
                        set.page_indices[page_pos], 0, spans);
        core::SiteObservation& observation = observations[positions[i]];
        observation.total_retries += f.outcome.attempts - 1;
        observation.outcomes.push_back(f.outcome);
        if (f.usable) observation.internals.push_back(std::move(f.metrics));
      }
    }
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const core::UrlSet& set = list.sets[positions[i]];
      core::SiteObservation& observation = observations[positions[i]];
      observation.domain = set.domain;
      observation.bootstrap_rank = set.bootstrap_rank;
      observation.category = site_of(positions[i]).profile().category;
      if (landing[i].empty()) {
        observation.quarantined = true;
      } else {
        Span span(&spans, Layer::kCore, "core.median");
        observation.landing =
            core::MeasurementCampaign::median_metrics(std::move(landing[i]));
      }
    }
  }

  // What `hispar measure` does after the campaign: the CSV, the summary
  // line and the headline landing-vs-internal contrast. Returns the
  // printed text so the gate can digest it.
  static std::string finish(const std::vector<core::SiteObservation>& sites,
                            const obs::RunTelemetry& telemetry,
                            const std::string& csv_path,
                            SpanRecorder* spans) {
    {
      Span span(spans, Layer::kSerialization, "serialization.csv_write");
      std::ofstream out(csv_path);
      core::write_measure_csv(out, sites);
      out.close();
      if (!out) throw std::runtime_error("cannot write " + csv_path);
    }
    std::ostringstream text;
    text.precision(17);
    {
      Span span(spans, Layer::kObs, "obs.report");
      text << obs::summary_line(core::build_run_report(sites, telemetry))
           << '\n';
    }
    {
      Span span(spans, Layer::kAnalyses, "analyses.compare");
      const auto size = core::compare_metric(sites, core::metric::bytes);
      const auto plt = core::compare_metric(sites, core::metric::plt_ms);
      text << size.fraction_landing_greater() << ' '
           << plt.fraction_landing_greater() << '\n';
    }
    return text.str();
  }

  static Result collect(const std::vector<core::SiteObservation>& sites,
                        const std::string& text, const std::string& dir,
                        const Meter& meter) {
    Result result;
    result.wall_s = meter.wall_s();
    result.cpu_s = meter.cpu_s();
    count_fetches(sites, result);
    result.digests["measure.csv"] = file_digest(dir + "/measure.csv");
    result.digests["summary"] = util::fnv1a(text);
    result.counters["measure.csv.bytes"] = file_size(dir + "/measure.csv");
    return result;
  }

  static void add_layer_counts(
      const std::vector<std::unique_ptr<ShardReplay>>& states,
      Result& result) {
    double hits = 0, misses = 0, loads = 0, entries = 0, retries = 0,
           denials = 0, cdn_requests = 0, edge_hits = 0, evictions = 0,
           dns_queries = 0, dns_hits = 0, urls = 0, fetch_keys = 0,
           hosts = 0;
    for (const auto& state : states) {
      if (state == nullptr) continue;
      hits += static_cast<double>(state->pages.hits());
      misses += static_cast<double>(state->pages.misses());
      loads += static_cast<double>(state->loads);
      entries += static_cast<double>(state->har_entries);
      retries += static_cast<double>(state->object_retries);
      denials += static_cast<double>(state->breaker_denials);
      cdn_requests += static_cast<double>(state->cdn.requests());
      edge_hits += static_cast<double>(state->cdn.edge_hits());
      evictions += static_cast<double>(state->cdn.lru_evictions());
      dns_queries += static_cast<double>(state->resolver.queries());
      dns_hits += static_cast<double>(state->resolver.hits());
      urls += static_cast<double>(state->detect.urls.size());
      fetch_keys += static_cast<double>(state->detect.fetch_keys.size());
      hosts += static_cast<double>(state->detect.hosts.size());
    }
    auto& layer = result.layer;
    layer["web.pages_generated"] = misses;
    layer["web.page_cache_hit_ratio"] = ratio(hits, hits + misses);
    layer["browser.loads"] = loads;
    layer["browser.har_entries"] = entries;
    layer["browser.object_retries"] = retries;
    layer["cdn.requests"] = cdn_requests;
    layer["cdn.edge_hit_ratio"] = ratio(edge_hits, cdn_requests);
    layer["cdn.lru_evictions"] = evictions;
    layer["net.dns_queries"] = dns_queries;
    layer["net.dns_hit_ratio"] = ratio(dns_hits, dns_queries);
    layer["net.faults_injected"] = 0;  // fault-free: no injector exists
    layer["net.breaker_denials"] = denials;
    layer["detect.url_memo_hit_ratio"] = 1.0 - ratio(urls, entries);
    layer["detect.fetch_memo_hit_ratio"] = 1.0 - ratio(fetch_keys, entries);
    layer["detect.host_memo_hit_ratio"] = 1.0 - ratio(hosts, entries);
    layer["detect.memo_entries"] = urls + fetch_keys + hosts;
    // Exact work counters join the gate's repeatability check.
    const auto exact = [&](const char* name, double value) {
      result.counters[name] = static_cast<std::uint64_t>(value);
    };
    exact("web.pages_generated", misses);
    exact("browser.har_entries", entries);
    exact("cdn.requests", cdn_requests);
    exact("net.dns_queries", dns_queries);
    exact("detect.memo_entries", urls + fetch_keys + hosts);
  }

  World world_;
  core::CampaignConfig config_;
};

}  // namespace

std::unique_ptr<Workload> make_measure_cold() {
  return std::make_unique<MeasureCold>();
}

}  // namespace perfbench
