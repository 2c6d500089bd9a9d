// Sharded, fault-aware, resumable Hispar list construction (§3, §7).
//
// The paper's list is not a one-shot artifact: it is *refreshed weekly*
// against a metered search API, which makes list construction a
// campaign in its own right — long-running, billable, and exposed to
// API failures. ListBuildCampaign brings the builder up to the same
// grade as MeasurementCampaign: the bootstrap scan is sharded across
// workers via core/parallel, `site:` query attempts pass through a
// search-API fault oracle (net::SearchFaultInjector) with per-query
// retry/backoff and site quarantine, completed weeks checkpoint through
// core/serialization, and per-shard metrics/traces merge into the usual
// deterministic telemetry artifacts.
//
// Determinism contract (same as the measurement campaign):
//  * every output byte — list CSVs, churn CSV, cost ledger, metrics,
//    trace, report, checkpoint — is identical for any --jobs value and
//    across kill + resume;
//  * with a zero-rate fault profile, the produced list, examined-site
//    count and billed-query count are exactly those of the serial
//    HisparBuilder (tests/test_list_build.cpp pins this).
//
// How the scan stays serial-equivalent under sharding: the serial
// builder walks bootstrap ranks in order and stops at the rank that
// accepts the target-th site. Per-rank decisions are pure — a domain's
// query results depend only on (domain, week, engine config), never on
// other domains — so the campaign examines ranks in fixed-size *waves*
// (wave size is config-derived, never --jobs derived), partitions each
// wave across shards by domain hash, then merges the candidates back in
// rank order and cuts the merged sequence at the serial stopping rank.
// Ranks examined past the cut are wave overshoot: their queries are
// real spend and are accounted separately as `speculative_queries`, but
// they never influence the list.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/hispar.h"
#include "net/faults.h"
#include "net/outage.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "search/engine.h"
#include "toplist/providers.h"
#include "web/generator.h"

namespace hispar::core {

// How examining one bootstrap rank ended.
enum class CandidateStatus : std::uint8_t {
  kAccepted = 0,     // enough internal results; joins the list
  kDropped,          // below min_internal_results (§3: mostly non-English)
  kMissing,          // bootstrap names a domain the web has no site for
  kQuarantined,      // every query attempt failed; excluded this week
};
inline constexpr int kCandidateStatusCount = 4;

std::string_view to_string(CandidateStatus status);

// One examined bootstrap rank: the shard's verdict plus what it cost.
struct SiteCandidate {
  std::size_t rank = 0;  // 1-based bootstrap rank
  std::string domain;
  CandidateStatus status = CandidateStatus::kDropped;
  UrlSet set;  // filled when accepted
  std::uint64_t queries_billed = 0;  // across all attempts
  int retries = 0;                   // attempts consumed beyond the first
  net::SearchFaultKind failure =
      net::SearchFaultKind::kNone;   // root cause when quarantined
};

// One week's build accounting. The sites_*/queries_billed/retries
// numbers cover the consumed bootstrap prefix only (ranks up to the
// serial stopping point), so on a fault-free run they equal the serial
// builder's BuildStats; wave overshoot shows up only in
// speculative_queries.
struct WeekBuildStats {
  std::uint64_t week = 0;
  std::size_t sites_examined = 0;
  std::size_t sites_accepted = 0;
  std::size_t sites_dropped = 0;
  std::size_t sites_missing = 0;
  std::size_t sites_quarantined = 0;
  std::uint64_t queries_billed = 0;
  std::uint64_t speculative_queries = 0;  // overshoot past the cut
  std::uint64_t retries = 0;
  // Quarantines by root cause, indexed by SearchFaultKind (slot 0
  // unused). Kept in the stats (not just telemetry) so resumed weeks
  // can rebuild the report without re-examining sites.
  std::array<std::uint64_t, net::kSearchFaultKindCount> quarantined_by{};

  bool operator==(const WeekBuildStats&) const = default;
};

struct ListBuildConfig {
  HisparConfig list;
  // Provider/pagination for the query engine; the index crawl budget is
  // taken from list.index_crawl_budget (as HisparBuilder does).
  search::SearchEngineConfig engine;
  std::uint64_t start_week = 0;
  std::uint64_t weeks = 1;  // refresh loop length
  std::uint64_t seed = 20200312;  // fault-stream seed (H1K bootstrap date)
  // Worker threads (0 = one per hardware thread). Never affects output.
  std::size_t jobs = 1;
  // Shard count: fault streams are keyed by shard id, so (like the
  // measurement campaign's cache-warmth shards) changing `shards`
  // changes fault decisions — changing `jobs` never does.
  std::size_t shards = 8;
  // Ranks examined per scan wave; 0 derives target_sites + headroom.
  // Config-derived only: the wave layout determines which overshoot
  // ranks get examined, so it must never depend on worker count.
  std::size_t wave_size = 0;
  // Search-API fault injection (default: all rates zero — a true no-op;
  // outputs are bit-identical to a build without fault support).
  // Decisions are keyed by (seed, week, shard, domain, attempt).
  net::SearchFaultProfile fault_profile;
  // Correlated-outage chaos schedule (default: empty — a true no-op;
  // the checkpoint digest gains a |chaos| component only when set).
  // Only search-scope rules affect the build — page scopes are inert
  // here. Strike decisions draw from per-attempt streams keyed by
  // (seed, week, shard, domain, attempt); an open per-shard "search"
  // circuit breaker fast-fails attempts without billing a query.
  net::OutageSchedule chaos;
  // Failed query attempts are retried up to this many times with an
  // exponential backoff gap on the shard's virtual clock; a site whose
  // attempts all fail is quarantined for the week.
  int max_query_retries = 2;
  double retry_backoff_s = 30.0;   // base gap; doubles per retry
  double query_latency_s = 0.25;   // virtual seconds per billed result page
  double timeout_latency_s = 10.0; // virtual cost of a timed-out API call
  // When non-empty, run() appends each completed week to this file and,
  // if the file already exists, resumes from it: completed weeks are
  // spliced in and only the rest re-run. The digest guard covers
  // everything that determines a week's bytes — but not `weeks` itself,
  // so a standing refresh loop can extend the same checkpoint file week
  // after week.
  std::string checkpoint_path;
  // Observability; never affects build output and is excluded from the
  // checkpoint digest. Per-shard telemetry is checkpointed per week so
  // resumed builds export bit-identical telemetry.
  obs::ObsOptions observability;
};

struct ListBuildResult {
  std::vector<HisparList> lists;      // one per week, ascending week
  std::vector<WeekBuildStats> weeks;  // parallel to lists
};

// One completed week as checkpointed and resumed (core/serialization).
struct ListBuildWeekRecord {
  std::uint64_t week = 0;
  HisparList list;
  WeekBuildStats stats;
  std::map<std::size_t, obs::ShardTelemetry> telemetry;  // by shard id
};

class ListBuildCampaign {
 public:
  ListBuildCampaign(const web::SyntheticWeb& web,
                    const toplist::TopListFactory& toplists,
                    ListBuildConfig config = {});

  // Build (or resume) the weekly lists. Weeks run in sequence; within a
  // week, scan waves fan out across shards on up to `config.jobs`
  // threads. Output is identical for any `jobs`.
  ListBuildResult run();

  // Fingerprint of everything that determines one week's bytes: seed,
  // list/engine config, shards, wave size, fault profile, retry policy,
  // virtual latencies, and the web universe — but never `jobs`,
  // `weeks`, or the observability options. Guards checkpoint resume.
  std::uint64_t checkpoint_digest() const;

  // Resolved wave size (config.wave_size or the derived default).
  std::size_t wave_size() const;

  // Merged telemetry of the last run(): per-week, per-shard registries
  // folded in (week, shard) order, gauges prefixed
  // "week.<w>.shard.<s>.", spans behind one campaign-level span.
  const obs::RunTelemetry& telemetry() const { return telemetry_; }

 private:
  // Everything one worker mutates while examining its slice of a week's
  // waves: a query engine (billing meter), a virtual clock, telemetry,
  // and the candidates it produced. State persists across the week's
  // waves — pagination warmth is per (shard, week), like the
  // measurement campaign's cache warmth is per shard.
  struct ShardWeekState : obs::UnitRecorder {
    ShardWeekState(const web::SyntheticWeb& web,
                   const search::SearchEngineConfig& engine_config,
                   const obs::ObsOptions& observability, std::size_t shard_id,
                   double clock_start_s);
    ShardWeekState(const ShardWeekState&) = delete;
    ShardWeekState& operator=(const ShardWeekState&) = delete;

    search::SearchEngine engine;
    std::size_t shard_id = 0;
    double clock_start_s = 0.0;
    double clock_s = 0.0;
    std::vector<SiteCandidate> candidates;
    // Per-shard defenses, touched only under a chaos schedule. Weeks
    // are the checkpoint unit and shard state is rebuilt per week, so
    // breaker state never needs serializing here (unlike the
    // measurement campaign's shard breakers).
    net::BreakerSet breakers;
    // Root cause charged to breaker-denied quarantines: the failure
    // kind that most recently tripped this shard's search breaker.
    net::SearchFaultKind last_failure_kind =
        net::SearchFaultKind::kQueryTimeout;
  };

  ListBuildWeekRecord build_week(std::uint64_t week);
  // One bootstrap rank: up to 1 + max_query_retries query attempts with
  // backoff, then the accept/drop/missing/quarantine verdict.
  SiteCandidate examine_rank(ShardWeekState& state,
                             const toplist::TopList& bootstrap,
                             std::uint64_t week, std::size_t rank);

  const web::SyntheticWeb* web_;
  const toplist::TopListFactory* toplists_;
  ListBuildConfig config_;
  net::OutagePlan chaos_plan_;   // materialized once; shared read-only
  obs::RunTelemetry telemetry_;  // merged by the last run()
};

// Guarded churn between two weekly lists: site churn is defined when
// `before` is non-empty; internal-URL churn when the weeks share at
// least one site with internal URLs (the raw §3 metrics throw on those
// degenerate inputs; multi-week artifacts must not).
struct ChurnCell {
  bool has_site_churn = false;
  double site_churn = 0.0;
  bool has_url_churn = false;
  double internal_url_churn = 0.0;
};
ChurnCell churn_between(const HisparList& before, const HisparList& after);

// Churn CSV over consecutive weekly lists (§3):
//   week_from,week_to,site_churn,internal_url_churn
// Undefined cells (empty week, no common sites) print "na".
void write_churn_csv(std::ostream& out, const std::vector<HisparList>& lists);

// Cost ledger CSV (§7): one row per (week, provider) for both providers
// at their published pricing, then total rows. `queries` is the
// consumed (serial-equivalent) count; spend covers everything actually
// issued (consumed + speculative).
void write_cost_ledger_csv(std::ostream& out,
                           const std::vector<WeekBuildStats>& weeks);

// Assembles the structured list-build report from a run's result and
// (possibly disabled/empty) merged telemetry. Lives here rather than in
// obs/ because it reads WeekBuildStats and SearchFaultKind.
obs::ListBuildReport build_listbuild_report(const ListBuildResult& result,
                                            const obs::RunTelemetry& telemetry);

}  // namespace hispar::core
