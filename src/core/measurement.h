// The measurement campaign (§3.1).
//
// Reproduces the paper's fetch protocol over a Hispar list:
//  * shuffle the landing pages, load each 10 times with a cold browser
//    cache (we take per-metric medians over the loads);
//  * fetch each internal page once (the population of internal samples
//    captures the variance, §3.1 fn. 2);
//  * leave >= 5 s between consecutive fetches (ethics, §3.1);
//  * derive every metric from the HAR + Navigation Timing data the
//    browser emits — CDN classification, tracker counts and header
//    bidding are *detected* from the HAR (cdnfinder heuristics, EasyList
//    matching, HB endpoint patterns), not read from generator ground
//    truth.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "browser/adblock.h"
#include "browser/hb_detect.h"
#include "browser/loader.h"
#include "cdn/detection.h"
#include "core/hispar.h"
#include "net/doh.h"
#include "net/faults.h"
#include "net/latency.h"
#include "net/outage.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "util/intern.h"
#include "util/rng.h"
#include "web/generator.h"

namespace hispar::core {

struct PageMetrics {
  double bytes = 0.0;
  double objects = 0.0;
  double plt_ms = 0.0;
  double on_load_ms = 0.0;
  double speed_index_ms = 0.0;
  double noncacheable_objects = 0.0;
  double cacheable_bytes_fraction = 0.0;
  double cdn_bytes_fraction = 0.0;  // detected via cdnfinder heuristics
  double x_cache_hits = 0.0;
  double x_cache_misses = 0.0;
  std::array<double, 9> mix_fractions{};   // byte share per MimeCategory
  std::array<double, 6> depth_counts{};    // objects at depth 0..4, 5+
  double unique_domains = 0.0;
  double hints_total = 0.0;
  double handshakes = 0.0;
  double handshake_time_ms = 0.0;
  double dns_lookups = 0.0;
  double dns_time_ms = 0.0;
  bool is_http = false;
  bool mixed_content = false;
  double tracking_requests = 0.0;  // EasyList-style blocked requests
  bool header_bidding = false;
  double hb_ad_slots = 0.0;
  std::set<std::string> third_parties;   // registrable domains
  // Per-object wait phase (§5.6, Fig. 7), in HAR fetch order. Capped at
  // CampaignConfig::wait_sample_cap samples per load (default 60): the
  // first cap entries are kept, the rest dropped — a memory bound, not
  // a statistical choice, so pages with more objects than the cap
  // under-sample their tail. median_metrics() concatenates the samples
  // of every usable load. The number of dropped samples is exported as
  // the `loader.wait_samples_dropped` counter when observability is on.
  std::vector<double> wait_samples_ms;
};

// One attempted page fetch (landing round or internal page) and how it
// ended. The paper's crawl logged exactly this — which loads failed and
// were discarded — so campaigns record it alongside the metrics
// ("Web Execution Bundles": reproducibility needs the failures too).
struct FetchOutcome {
  std::size_t page_index = 0;
  int load_ordinal = 0;   // landing round; 0 for internal pages
  int attempts = 1;       // campaign-level attempts consumed (1 = no retry)
  browser::LoadStatus status = browser::LoadStatus::kOk;  // final attempt
  net::FaultKind failure = net::FaultKind::kNone;  // root cause when failed
  int failed_objects = 0;  // in the load that was kept
  // Objects an open circuit breaker failed fast (0 unless the campaign
  // runs under a chaos profile; see CampaignConfig::chaos).
  int breaker_denials = 0;

  bool operator==(const FetchOutcome&) const = default;
};

struct SiteObservation {
  std::string domain;
  std::size_t bootstrap_rank = 0;
  web::SiteCategory category = web::SiteCategory::kNews;
  PageMetrics landing;                  // per-metric median of the loads
  std::vector<PageMetrics> internals;   // one per internal page

  // Failure accounting (empty/false on a reliable substrate).
  std::vector<FetchOutcome> outcomes;   // one per attempted page fetch
  int total_retries = 0;                // campaign-level re-fetches
  // No landing load ever succeeded: the site is dropped from analyses
  // and reported, mirroring the paper discarding such sites.
  bool quarantined = false;

  // Fraction of page fetches that produced a usable (non-failed) load.
  double success_rate() const;
  // Some load failed or came back partial: analyses flag the site
  // instead of letting its thinner data skew medians silently.
  bool degraded() const;

  // Median of an internal-page metric.
  double internal_median(
      const std::function<double(const PageMetrics&)>& fn) const;
  // Union of third parties across internal pages.
  std::set<std::string> internal_third_parties() const;
};

// Aggregate failure accounting for a campaign (`hispar measure` prints
// this as its summary line).
struct CampaignSummary {
  std::size_t sites_ok = 0;
  std::size_t sites_degraded = 0;
  std::size_t sites_quarantined = 0;
  std::uint64_t total_retries = 0;
  std::uint64_t failed_fetches = 0;    // page fetches with no usable load
  std::uint64_t degraded_fetches = 0;  // usable but partial loads
};

CampaignSummary summarize_campaign(const std::vector<SiteObservation>& sites);

struct CampaignConfig {
  int landing_loads = 10;
  std::uint64_t seed = 20200312;  // H1K bootstrap date (§3.1)
  double inter_fetch_gap_s = 5.0;
  net::Region vantage = net::Region::kNorthAmerica;
  // Per-vantage substrate knobs. The defaults reproduce the historical
  // single-vantage substrate byte for byte (they are exactly what the
  // campaign used to hardcode); VantageCampaign overrides them per
  // vantage profile. Non-default values join the checkpoint digest.
  net::LatencyConfig latency;        // last-mile / inter-region shape
  net::ResolverConfig resolver;      // ISP-style local resolver
  bool use_doh = false;              // route lookups through DoH
  net::DohConfig doh;
  // Pin CDN traffic to one edge region (anycast mis-routing); wired
  // into both the CDN hierarchy and the loader so the cache and the
  // client RTT describe the same PoP.
  std::optional<net::Region> cdn_edge_pin;
  browser::LoadOptions load_options;  // ablation switches pass through
  std::size_t wait_sample_cap = 60;
  // Worker threads for run(). 0 = one per hardware thread. Results are
  // bit-identical for every value of `jobs` — only `shards` affects them.
  std::size_t jobs = 1;
  // Cache-warmth domains ("vantage points"): each site is assigned to a
  // shard by a stable hash of its domain, and each shard owns isolated
  // DNS/CDN/clock state plus an RNG forked from the campaign seed by
  // shard id. Changing `shards` changes cache-warmth coupling between
  // sites (and therefore metrics); changing `jobs` never does.
  std::size_t shards = 8;
  // Fault injection over the substrate (default: all rates zero, which
  // is a true no-op — outputs are bit-identical to a campaign without
  // fault support). Fault decisions are keyed by (seed, shard, domain,
  // page, ordinal, attempt), so the determinism guarantee above holds
  // under faults too.
  net::FaultProfile fault_profile;
  // Correlated-outage chaos schedule (default: empty, a true no-op —
  // outputs are bit-identical to a campaign without chaos support).
  // When non-empty, the campaign materializes the schedule against
  // `seed` (windows keyed by (seed, scope, window_ordinal)), consults
  // the resulting oracle per fetch stage, and arms the defense layer:
  // per-shard circuit breakers, hedged DNS lookups and deadline-budget
  // propagation. Strike decisions are keyed like fault decisions, so
  // the --jobs / kill+resume determinism guarantees hold under chaos.
  net::OutageSchedule chaos;
  // Failed page loads are re-fetched up to this many times, with an
  // exponential backoff gap on the shard clock between attempts
  // (doubling, capped at 32x the base).
  int max_page_retries = 2;
  double retry_backoff_s = 15.0;  // base gap; doubles per retry
  // Page-level watchdog handed to the loader on every fetch (faulty or
  // not — a fault-free pathological page must not run unbounded).
  double page_timeout_s = 60.0;
  // When non-empty, run() appends each completed shard's observations
  // to this file and, if the file already exists, resumes from it:
  // completed shards are spliced in and only the rest re-run. Because a
  // shard is the unit of isolated state, a resumed campaign's output is
  // bit-identical to an uninterrupted run.
  std::string checkpoint_path;
  // Observability (metrics/tracing). Never affects measurements — the
  // instrumentation draws no randomness and never touches a clock — so
  // it is excluded from the checkpoint digest, and per-shard telemetry
  // is checkpointed alongside observations so resumed campaigns export
  // bit-identical telemetry too.
  obs::ObsOptions observability;
};

// Memoization tables for the HAR detectors (CDN classification,
// EasyList matching, HB patterns, registrable domains). Every detector
// is a pure function of the fields the memo key captures, so replaying
// a cached verdict is result-identical to re-running it. A URL memo
// miss costs one pass of the shared tagged filter set over the URL
// (tracker list, HB exchanges and HB creatives at once, see
// browser/filters.h); a fetch memo miss runs the CDN
// detector's glob_match host/CNAME patterns. Tables live per worker —
// like the resolver cache — and their size is bounded by the worker's
// distinct URLs/hosts/header tuples.
struct DetectionScratch {
  // (host, CNAME, headers) tuple -> CdnDetector::classify().via_cdn.
  // Keys are built in `key_buf` (reused) as newline-joined fields; a
  // present CNAME is prefixed '@' so "no CNAME" and "empty CNAME"
  // cannot collide.
  util::SymbolTable fetch_keys;
  std::vector<char> via_cdn;
  std::string key_buf;
  // URL -> browser::FilterTag bits {EasyList block, HB exchange, HB ad
  // creative}.
  util::SymbolTable urls;
  std::vector<std::uint8_t> url_flags;
  // Host -> registrable domain.
  util::SymbolTable hosts;
  std::vector<std::string> registrable;
  // Host id -> the last extraction that saw it (`load_stamp`, bumped once
  // per extraction and never wrapping), so distinct hosts are counted
  // without a set.
  std::vector<std::uint64_t> host_stamp;
  std::uint64_t load_stamp = 0;
  // Per-load distinct-host / distinct-URL buffers replicating
  // HbDetector::analyze()'s aggregation (views into the HAR).
  std::vector<std::string_view> hb_hosts;
  std::vector<std::string_view> hb_urls;
};

// Derives every PageMetrics field from one load's HAR + timing data,
// memoizing detector verdicts in `scratch`. Shared by the measurement
// and session campaigns (both must classify HARs identically for the
// cold-vs-warm contrast to be apples-to-apples). `metrics` (nullable)
// receives the wait-samples-dropped counter when observability is on.
PageMetrics extract_page_metrics(const web::WebPage& page,
                                 const browser::LoadResult& result,
                                 DetectionScratch& scratch,
                                 const browser::AdBlocker& adblock,
                                 const browser::HbDetector& hb,
                                 const cdn::CdnDetector& detector,
                                 std::size_t wait_sample_cap,
                                 obs::MetricsRegistry* metrics);

// The read-only half of a campaign that every unit fetches through:
// its configuration and the detectors and outage plan built from it.
// Built once per campaign and shared by all workers (the detectors'
// classify/analyze paths are const and stateless, and the plan's window
// queries are pure).
struct FetchContext {
  FetchContext(const web::SyntheticWeb& web, CampaignConfig config);

  CampaignConfig config;
  browser::AdBlocker adblock;
  browser::HbDetector hb;
  cdn::CdnDetector detector;
  // config.chaos materialized against config.seed.
  net::OutagePlan chaos_plan;
};

// Everything one unit mutates while it measures: the full network/CDN
// simulation substrate, its telemetry, a virtual clock from 0, and the
// root of its random streams. A unit is one shard of a cold campaign
// (one vantage point; cache warmth never crosses shards) or one
// browsing session. `shard_id` is the shard id or the session's list
// position; the unit's trace thread id is shard_id + 1.
struct ShardState : obs::UnitRecorder {
  // `rng` is the stream root: the cold campaign forks the seed by shard
  // id, sessions fork it by "session". fetch_page keys every stream off
  // it by (domain, page, ordinal, attempt).
  ShardState(const web::SyntheticWeb& web, const CampaignConfig& config,
             std::size_t shard_id, util::Rng rng);
  ShardState(const ShardState&) = delete;
  ShardState& operator=(const ShardState&) = delete;

  obs::ShardObs obs_handle(const CampaignConfig& config) const;

  net::LatencyModel latency;
  cdn::CdnHierarchy cdn;
  net::CachingResolver resolver;
  // DoH wrapper around `resolver`; null unless config.use_doh.
  // Declared before `loader` so the loader env can point at it.
  std::unique_ptr<net::DohResolver> doh;
  std::size_t shard_id = 0;
  browser::PageLoader loader;
  util::Rng rng;
  double clock_s = 0.0;
  // Defense-layer circuit breakers, one per blast radius this unit
  // touched. Untouched (and never consulted) unless the campaign runs
  // under a chaos schedule, so chaos-free runs stay bit-identical.
  net::BreakerSet breakers;
  // Page materialization cache and detector memos. Both are pure
  // caches: attaching or clearing them never changes campaign output.
  // The page cache is deliberately NOT wired into the unit's metrics
  // registry — its counters would alter the exported telemetry bytes,
  // and the campaign's contract is that this optimization pass leaves
  // every artifact bit-identical (tests/test_golden.cpp pins this).
  web::PageCache pages;
  DetectionScratch detect;
};

// One campaign-level page fetch and how it ended.
struct PageFetch {
  PageMetrics metrics;
  FetchOutcome outcome;
  bool usable = false;  // metrics are meaningful (load did not fail)
};

// The §3.1 fetch of one page, shared by the cold campaign and the
// session engine so both fetch and classify identically: up to
// 1 + max_page_retries load attempts (retries only under a fault
// profile or chaos schedule) with backoff gaps on the unit clock, each
// attempt recorded in the unit's telemetry, and the metrics of the
// first usable load derived from its HAR. `session` is the warm client
// state threaded into every load (null: a cold browser profile).
PageFetch fetch_page(const FetchContext& context, ShardState& state,
                     const web::WebSite& site, std::size_t page_index,
                     int load_ordinal,
                     browser::SessionState* session = nullptr);

class MeasurementCampaign {
 public:
  MeasurementCampaign(const web::SyntheticWeb& web, CampaignConfig config = {});

  // Fetch and measure every URL set in the list. Sites are partitioned
  // into `config.shards` shards by domain hash; shards run concurrently
  // on up to `config.jobs` threads and the observations are merged back
  // into list order. Output is identical for any `jobs`.
  std::vector<SiteObservation> run(const HisparList& list);

  // Measure one explicit set of pages of one site (used by the §4
  // limited exhaustive crawl and the examples). Runs on a persistent
  // single-vantage-point state (shard id 0) so repeated calls share
  // DNS/CDN warmth, like the serial campaign did.
  SiteObservation measure_site(const web::WebSite& site,
                               const std::vector<std::size_t>& internal_pages);

  // Per-metric median over repeat loads of one page. Doubles take the
  // field-wise median; `is_http`/`header_bidding` take a strict majority
  // vote and `mixed_content` is true if any load saw it (the paper flags
  // a site if any load shows mixed content). Exposed for tests.
  static PageMetrics median_metrics(const std::vector<PageMetrics>& loads);

  // Fingerprint of everything that determines run() output for a given
  // list (seed, shards, loads, fault profile, retries, ablations,
  // non-default substrate knobs, and the list itself — but never
  // `jobs`, and never the observability options, which cannot change
  // results). Guards checkpoint resume against a mismatched campaign.
  // Delegates to the free function campaign_config_digest below.
  std::uint64_t checkpoint_digest(const HisparList& list) const;

  // Merged telemetry of the last run() (empty/disabled unless
  // config.observability.enabled). Deterministic: per-shard registries
  // and span lists are folded in shard-id order.
  const obs::RunTelemetry& telemetry() const { return telemetry_; }

  // What one shard hands back to an external scheduler: its drained
  // telemetry (empty when observability is off) and final breaker
  // records (empty unless a chaos schedule armed them).
  struct ShardRun {
    obs::ShardTelemetry telemetry;
    std::vector<net::BreakerSet::Record> breakers;
  };

  // One shard-granular slice of run(), for schedulers that interleave
  // shards of several campaigns (the multi-vantage (vantage, shard)
  // pool): builds the shard's isolated state on the calling thread,
  // runs the §3.1 fetch protocol over `positions` (as produced by
  // shard_indices for this shard), and writes each result into
  // observations[position]. Safe to call concurrently for distinct
  // shards of the same campaign — workers only read the shared
  // detectors/config and write disjoint output slots.
  ShardRun run_one_shard(std::size_t shard, const HisparList& list,
                         const std::vector<std::size_t>& positions,
                         std::vector<SiteObservation>& observations);

 private:
  // Serial §3.1 fetch protocol over the sites of one shard (positions
  // into list.sets); writes each result to observations[position].
  void run_shard(ShardState& state, const HisparList& list,
                 const std::vector<std::size_t>& positions,
                 std::vector<SiteObservation>& observations);
  const web::WebSite& require_site(const std::string& domain) const;

  const web::SyntheticWeb* web_;
  FetchContext context_;
  obs::RunTelemetry telemetry_;  // merged by the last run()
  ShardState local_;  // measure_site() state
};

// The fold units of a campaign's per-shard telemetry (indexed by shard
// id): gauges prefixed "shard.<id>.". MeasurementCampaign::run() and
// VantageCampaign's cells fold these behind a span named "campaign", so
// a vantage's telemetry assembled from (vantage, shard) cells is
// byte-identical to the inner campaign's own.
std::vector<obs::TelemetryUnit> shard_units(
    const std::vector<obs::ShardTelemetry>& shards);

// Assembles the structured run report from a campaign's observations
// and (possibly disabled/empty) merged telemetry. Lives here rather
// than in obs/ because it reads SiteObservation and FaultKind.
obs::RunReport build_run_report(const std::vector<SiteObservation>& sites,
                                const obs::RunTelemetry& telemetry);

// Digest of everything that determines MeasurementCampaign::run()
// output for `config` over `list`. Substrate knobs contribute only
// when they differ from the defaults, so digests of historical
// campaigns (and their on-disk checkpoints) are unchanged.
// VantageCampaign digests each derived per-vantage config through this.
std::uint64_t campaign_config_digest(const CampaignConfig& config,
                                     const HisparList& list);

// Fail-fast validation shared by the CLI and tests: a campaign accepts
// shards > sites, but the partition is then silently degenerate (empty
// shards), which `hispar` treats as user error. Throws
// std::invalid_argument with `context` prefixed to the message.
void validate_shard_count(const std::string& context, std::size_t shards,
                          std::size_t sites);

}  // namespace hispar::core
