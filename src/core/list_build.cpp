#include "core/list_build.h"

#include <algorithm>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/journal.h"
#include "core/parallel.h"
#include "core/serialization.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace hispar::core {

namespace {

// Weekly refreshes run back to back on the virtual clock: week k of a
// run starts at k * one-week offsets so the trace rows don't overlap
// and resumed weeks need no clock restoration.
constexpr double kWeekSeconds = 604800.0;

}  // namespace

std::string_view to_string(CandidateStatus status) {
  switch (status) {
    case CandidateStatus::kAccepted: return "accepted";
    case CandidateStatus::kDropped: return "dropped";
    case CandidateStatus::kMissing: return "missing";
    case CandidateStatus::kQuarantined: return "quarantined";
  }
  return "unknown";
}

ListBuildCampaign::ShardWeekState::ShardWeekState(
    const web::SyntheticWeb& web,
    const search::SearchEngineConfig& engine_config,
    const obs::ObsOptions& observability, std::size_t shard_id,
    double clock_start_s)
    : obs::UnitRecorder(observability),
      engine(web, engine_config),
      shard_id(shard_id),
      clock_start_s(clock_start_s),
      clock_s(clock_start_s) {}

ListBuildCampaign::ListBuildCampaign(const web::SyntheticWeb& web,
                                     const toplist::TopListFactory& toplists,
                                     ListBuildConfig config)
    : web_(&web),
      toplists_(&toplists),
      config_(std::move(config)),
      chaos_plan_(config_.chaos, config_.seed) {}

std::size_t ListBuildCampaign::wave_size() const {
  if (config_.wave_size != 0) return config_.wave_size;
  // Enough headroom that the drop rate the paper reports (§3: a few
  // percent of examined sites) rarely forces a second wave, without
  // examining the whole bootstrap list speculatively.
  const std::size_t target = config_.list.target_sites;
  return target + std::max<std::size_t>(32, target / 4);
}

std::uint64_t ListBuildCampaign::checkpoint_digest() const {
  std::ostringstream os;
  os.precision(17);
  os << "lb-v1|" << config_.seed << '|' << config_.shards << '|'
     << wave_size() << '|' << config_.start_week << '|' << config_.list.name
     << '|' << config_.list.target_sites << '|' << config_.list.urls_per_site
     << '|' << config_.list.min_internal_results << '|'
     << static_cast<int>(config_.list.bootstrap) << '|'
     << config_.list.max_bootstrap_scan << '|'
     << config_.list.index_crawl_budget << '|'
     << static_cast<int>(config_.engine.provider) << '|'
     << config_.engine.results_per_query << '|'
     << (config_.engine.english_only ? 1 : 0) << '|'
     << config_.fault_profile.str() << '|' << config_.max_query_retries << '|'
     << config_.retry_backoff_s << '|' << config_.query_latency_s << '|'
     << config_.timeout_latency_s << '|' << web_->config().seed << '|'
     << web_->site_count();
  // Appended only when set, so chaos-free checkpoints keep their
  // historical digests.
  if (config_.chaos.enabled()) os << "|chaos|" << config_.chaos.str();
  return util::fnv1a(os.str());
}

SiteCandidate ListBuildCampaign::examine_rank(ShardWeekState& state,
                                              const toplist::TopList& bootstrap,
                                              std::uint64_t week,
                                              std::size_t rank) {
  SiteCandidate candidate;
  candidate.rank = rank;
  candidate.domain = bootstrap.domain_at(rank);
  const double start_s = state.clock_s;
  const bool faulty = config_.fault_profile.enabled();
  const bool chaotic = chaos_plan_.enabled();
  const int max_attempts =
      (faulty || chaotic) ? 1 + std::max(0, config_.max_query_retries) : 1;

  search::SiteQueryOutcome outcome;
  int attempts = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0)  // backoff gap before the retry, on the shard clock
      state.clock_s += retry_backoff_s(config_.retry_backoff_s, attempt - 1);

    // An open search breaker fast-fails the attempt: no API call, no
    // billed query, no randomness. The backoff gap above still runs on
    // the shard clock, so the breaker's cooldown can elapse mid-site.
    if (chaotic && !state.breakers.at("search").allow(state.clock_s)) {
      outcome = search::SiteQueryOutcome{};
      outcome.ok = false;
      outcome.failure = state.last_failure_kind;
      attempts = attempt + 1;
      continue;
    }

    // Correlated outages strike before the query is issued — a struck
    // attempt models the API call itself failing, so it bills nothing.
    // The oracle draws only while a search-scope window is active
    // (activity is a pure function of virtual time), from a per-attempt
    // stream, so streams stay aligned for any --jobs value.
    std::optional<net::ChaosInjector> chaos_injector;
    if (chaotic)
      chaos_injector.emplace(
          chaos_plan_, util::Rng(config_.seed)
                           .fork("listbuild-chaos")
                           .fork(week)
                           .fork(static_cast<std::uint64_t>(state.shard_id))
                           .fork(candidate.domain)
                           .fork(static_cast<std::uint64_t>(attempt)));
    const net::SearchFaultKind chaos_strike =
        chaos_injector ? chaos_injector->search_fault(state.clock_s)
                       : net::SearchFaultKind::kNone;
    if (chaos_strike != net::SearchFaultKind::kNone) {
      if (state.metrics != nullptr)
        ++state.metrics->counter(
            "chaos.injected." +
            std::string(net::to_string(chaos_strike)));
      outcome = search::SiteQueryOutcome{};
      outcome.ok = false;
      outcome.failure = chaos_strike;
      attempts = attempt + 1;
      state.last_failure_kind = chaos_strike;
      state.breakers.at("search").record_failure(state.clock_s);
      if (chaos_strike == net::SearchFaultKind::kQueryTimeout)
        state.clock_s += config_.timeout_latency_s;
      continue;
    }

    // Fault decisions come from their own stream, keyed by everything
    // that identifies this query attempt and nothing that depends on
    // thread scheduling; `week` keys the refresh iteration the query
    // belongs to. The injector only exists under a nonzero profile, so
    // a fault-free build draws no extra randomness at all.
    std::optional<net::SearchFaultInjector> injector;
    if (faulty)
      injector.emplace(config_.fault_profile,
                       util::Rng(config_.seed)
                           .fork("listbuild")
                           .fork(week)
                           .fork(static_cast<std::uint64_t>(state.shard_id))
                           .fork(candidate.domain)
                           .fork(static_cast<std::uint64_t>(attempt)));

    outcome = state.engine.site_query_outcome(
        candidate.domain, config_.list.urls_per_site - 1, week,
        injector ? &*injector : nullptr);
    attempts = attempt + 1;
    candidate.queries_billed += outcome.queries_billed;
    state.clock_s += static_cast<double>(outcome.queries_billed) *
                     config_.query_latency_s;

    if (injector && state.metrics != nullptr) {
      const auto& injected = injector->injected();
      for (int kind = 1; kind < net::kSearchFaultKindCount; ++kind)
        if (injected[static_cast<std::size_t>(kind)] > 0)
          state.metrics->counter(
              "search.faults.injected." +
              std::string(net::to_string(
                  static_cast<net::SearchFaultKind>(kind)))) +=
              injected[static_cast<std::size_t>(kind)];
    }

    if (chaotic) {
      if (outcome.ok)
        state.breakers.at("search").record_success(state.clock_s);
      else
        state.breakers.at("search").record_failure(state.clock_s);
    }
    if (outcome.ok) break;
    if (outcome.failure != net::SearchFaultKind::kNone)
      state.last_failure_kind = outcome.failure;
    if (outcome.failure == net::SearchFaultKind::kQueryTimeout)
      state.clock_s += config_.timeout_latency_s;
  }
  candidate.retries = attempts - 1;

  if (!outcome.ok) {
    candidate.status = CandidateStatus::kQuarantined;
    candidate.failure = outcome.failure;
  } else {
    // Only internal results count toward the §3 threshold (landing
    // results are deduplicated against urls[0] below).
    std::size_t internal_results = 0;
    for (const auto& result : outcome.results)
      if (result.page_index != 0) ++internal_results;
    if (internal_results < config_.list.min_internal_results) {
      candidate.status = CandidateStatus::kDropped;
    } else {
      const web::WebSite* site = web_->find_site(candidate.domain);
      if (site == nullptr) {
        candidate.status = CandidateStatus::kMissing;
      } else {
        candidate.status = CandidateStatus::kAccepted;
        UrlSet set;
        set.domain = candidate.domain;
        set.bootstrap_rank = rank;
        set.urls.push_back(site->page_url(0).str());
        set.page_indices.push_back(0);
        for (const auto& result : outcome.results) {
          if (result.page_index == 0) continue;  // landing already included
          set.urls.push_back(result.url);
          set.page_indices.push_back(result.page_index);
        }
        candidate.set = std::move(set);
      }
    }
  }

  // Telemetry records the shard's actual execution — including overshoot
  // ranks the merge later discards; the consumed-prefix accounting lives
  // in WeekBuildStats.
  if (state.metrics != nullptr) {
    obs::MetricsRegistry& reg = *state.metrics;
    ++reg.counter("search.sites_examined");
    ++reg.counter("search.sites_" +
                  std::string(to_string(candidate.status)));
    reg.counter("search.queries") += candidate.queries_billed;
    reg.counter("search.retries") +=
        static_cast<std::uint64_t>(candidate.retries);
  }
  if (state.tracer != nullptr) {
    obs::TraceSpan span;
    span.name = candidate.domain;
    span.cat = "site-query";
    span.ts_us = obs::to_trace_us(start_s);
    span.dur_us = obs::to_trace_us(state.clock_s - start_s);
    span.tid = static_cast<std::uint32_t>(state.shard_id) + 1;
    span.args.emplace_back("rank", std::to_string(rank));
    span.args.emplace_back("status", std::string(to_string(candidate.status)));
    span.args.emplace_back("queries",
                           std::to_string(candidate.queries_billed));
    state.tracer->record(std::move(span));
  }
  return candidate;
}

ListBuildWeekRecord ListBuildCampaign::build_week(std::uint64_t week) {
  const std::size_t target = config_.list.target_sites;
  const std::size_t scan_limit = config_.list.max_bootstrap_scan == 0
                                     ? web_->site_count()
                                     : config_.list.max_bootstrap_scan;
  const toplist::TopList bootstrap =
      toplists_->weekly_list(config_.list.bootstrap, week, scan_limit);
  const std::size_t shard_count = std::max<std::size_t>(1, config_.shards);

  search::SearchEngineConfig engine_config = config_.engine;
  engine_config.index.crawl_budget = config_.list.index_crawl_budget;

  const double clock_start_s =
      static_cast<double>(week - config_.start_week) * kWeekSeconds;
  std::vector<std::unique_ptr<ShardWeekState>> states;
  states.reserve(shard_count);
  for (std::size_t shard = 0; shard < shard_count; ++shard)
    states.push_back(std::make_unique<ShardWeekState>(
        *web_, engine_config, config_.observability, shard, clock_start_s));

  // Scan bootstrap ranks in waves until the target-th acceptance exists
  // somewhere in the examined set (the cut to the serial stopping rank
  // happens after the merge). Wave layout depends only on config.
  const std::size_t wave = wave_size();
  std::size_t accepted_total = 0;
  std::size_t next_rank = 1;
  while (next_rank <= bootstrap.size() && accepted_total < target) {
    const std::size_t wave_end =
        std::min(bootstrap.size(), next_rank + wave - 1);
    std::vector<std::vector<std::size_t>> wave_ranks(shard_count);
    for (std::size_t rank = next_rank; rank <= wave_end; ++rank)
      wave_ranks[shard_of(bootstrap.domain_at(rank), shard_count)]
          .push_back(rank);

    std::vector<std::size_t> before(shard_count);
    for (std::size_t shard = 0; shard < shard_count; ++shard)
      before[shard] = states[shard]->candidates.size();

    // Workers only touch their own shard state and append to their own
    // candidate vector; memory visibility comes from the joins inside
    // for_each_unit.
    for_each_unit(shard_count, config_.jobs, [&](std::size_t shard) {
      ShardWeekState& state = *states[shard];
      for (std::size_t rank : wave_ranks[shard])
        state.candidates.push_back(
            examine_rank(state, bootstrap, week, rank));
    });

    for (std::size_t shard = 0; shard < shard_count; ++shard)
      for (std::size_t i = before[shard]; i < states[shard]->candidates.size();
           ++i)
        if (states[shard]->candidates[i].status == CandidateStatus::kAccepted)
          ++accepted_total;
    next_rank = wave_end + 1;
  }

  // Merge all candidates back into bootstrap-rank order. Per-rank
  // verdicts are pure functions of (domain, week, engine config), so
  // the merged sequence is exactly what a serial rank-order scan would
  // have produced.
  std::vector<const SiteCandidate*> merged;
  for (const auto& state : states)
    for (const auto& candidate : state->candidates)
      merged.push_back(&candidate);
  std::sort(merged.begin(), merged.end(),
            [](const SiteCandidate* a, const SiteCandidate* b) {
              return a->rank < b->rank;
            });

  // The consumed prefix ends at the rank that accepts the target-th
  // site — the serial builder's stopping point. Everything past the cut
  // is wave overshoot: real queries (they are spend), but never list
  // content or coverage counts.
  std::size_t cut = merged.size();
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (merged[i]->status == CandidateStatus::kAccepted && ++accepted == target) {
      cut = i + 1;
      break;
    }
  }

  ListBuildWeekRecord record;
  record.week = week;
  record.list.name = config_.list.name;
  record.list.week = week;
  record.stats.week = week;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const SiteCandidate& candidate = *merged[i];
    if (i >= cut) {
      record.stats.speculative_queries += candidate.queries_billed;
      continue;
    }
    ++record.stats.sites_examined;
    record.stats.queries_billed += candidate.queries_billed;
    record.stats.retries += static_cast<std::uint64_t>(candidate.retries);
    switch (candidate.status) {
      case CandidateStatus::kAccepted:
        ++record.stats.sites_accepted;
        record.list.sets.push_back(candidate.set);
        break;
      case CandidateStatus::kDropped:
        ++record.stats.sites_dropped;
        break;
      case CandidateStatus::kMissing:
        ++record.stats.sites_missing;
        break;
      case CandidateStatus::kQuarantined:
        ++record.stats.sites_quarantined;
        ++record.stats.quarantined_by[static_cast<std::size_t>(
            candidate.failure)];
        break;
    }
  }

  if (config_.observability.enabled) {
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      ShardWeekState& state = *states[shard];
      if (state.metrics != nullptr) {
        // Shard-scoped values live in gauges; the merge prefixes them
        // "week.<w>.shard.<id>." so they stay distinguishable.
        state.metrics->gauge("clock_end_s") = state.clock_s;
        state.metrics->gauge("sites") =
            static_cast<double>(state.candidates.size());
        state.metrics->gauge("queries") =
            static_cast<double>(state.engine.queries_issued());
        // Breaker counters exist only under a chaos schedule, so
        // chaos-free metrics artifacts keep their historical bytes.
        if (!state.breakers.empty()) {
          state.metrics->gauge("breaker.scopes") =
              static_cast<double>(state.breakers.records().size());
          if (state.breakers.total_times_opened() > 0)
            state.metrics->counter("breaker.opened") =
                state.breakers.total_times_opened();
          if (state.breakers.total_denials() > 0)
            state.metrics->counter("breaker.denials") =
                state.breakers.total_denials();
        }
      }
      if (state.tracer != nullptr) {
        obs::TraceSpan span;
        span.name = "shard " + std::to_string(shard) + " week " +
                    std::to_string(week);
        span.cat = "shard";
        span.ts_us = obs::to_trace_us(state.clock_start_s);
        span.dur_us = obs::to_trace_us(state.clock_s - state.clock_start_s);
        span.tid = static_cast<std::uint32_t>(shard) + 1;
        state.tracer->record(std::move(span));
      }
      record.telemetry.emplace(shard, state.take());
    }
  }
  return record;
}

ListBuildResult ListBuildCampaign::run() {
  if (config_.weeks == 0)
    throw std::invalid_argument("list build: weeks must be >= 1");
  if (config_.list.urls_per_site == 0)
    throw std::invalid_argument("list build: urls_per_site must be >= 1");

  const std::uint64_t end_week = config_.start_week + config_.weeks;

  // Resume: splice completed weeks inside [start_week, end_week) back
  // in; weeks outside the range (a previous, longer refresh) are kept
  // out of the result but dropped from the rewritten file, which also
  // discards any torn tail a kill may have left.
  std::map<std::uint64_t, ListBuildWeekRecord> resumed;
  CheckpointJournal journal("list build", kListBuildCheckpointTag,
                            config_.checkpoint_path);
  if (auto checkpoint = journal.open(
          read_listbuild_checkpoint, [&] { return checkpoint_digest(); },
          "build (seed/list/engine/profile changed)")) {
    for (auto& record : checkpoint->weeks) {
      if (record.week < config_.start_week || record.week >= end_week)
        continue;
      record.list.name = config_.list.name;  // not serialized
      record.list.week = record.week;
      resumed.insert_or_assign(record.week, std::move(record));
    }
  }
  journal.rewrite([&](std::ostream& out) {
    for (const auto& [week, record] : resumed)
      append_listbuild_week(out, record);
  });

  std::vector<ListBuildWeekRecord> records;
  records.reserve(config_.weeks);
  for (std::uint64_t week = config_.start_week; week < end_week; ++week) {
    const auto it = resumed.find(week);
    if (it != resumed.end()) {
      records.push_back(std::move(it->second));
      continue;
    }
    records.push_back(build_week(week));
    journal.append(
        [&](std::ostream& out) { append_listbuild_week(out, records.back()); });
  }

  telemetry_ = obs::RunTelemetry{};
  telemetry_.enabled = config_.observability.enabled;
  if (config_.observability.enabled) {
    // Fold in (week, shard) order, gauges prefixed
    // "week.<w>.shard.<id>.", behind one campaign-level span spanning
    // the whole refresh loop.
    std::vector<obs::TelemetryUnit> units;
    for (const auto& record : records)
      for (const auto& [shard, telemetry] : record.telemetry)
        units.push_back({&telemetry, "week." + std::to_string(record.week) +
                                         ".shard." + std::to_string(shard) +
                                         "."});
    obs::fold_unit_telemetry(telemetry_, units, "list build");
  }

  ListBuildResult result;
  result.lists.reserve(records.size());
  result.weeks.reserve(records.size());
  for (auto& record : records) {
    result.lists.push_back(std::move(record.list));
    result.weeks.push_back(record.stats);
  }
  return result;
}

ChurnCell churn_between(const HisparList& before, const HisparList& after) {
  ChurnCell cell;
  if (!before.sets.empty()) {
    cell.has_site_churn = true;
    cell.site_churn = site_churn(before, after);
  }
  // internal_url_churn is defined over internal URLs of sites present
  // in both weeks; replicate its guard instead of catching the throw.
  std::size_t common_internals = 0;
  for (const auto& set : before.sets)
    if (after.find(set.domain) != nullptr)
      common_internals += set.internal_count();
  if (common_internals > 0) {
    cell.has_url_churn = true;
    cell.internal_url_churn = internal_url_churn(before, after);
  }
  return cell;
}

void write_churn_csv(std::ostream& out,
                     const std::vector<HisparList>& lists) {
  out << "week_from,week_to,site_churn,internal_url_churn\n";
  for (std::size_t i = 1; i < lists.size(); ++i) {
    const ChurnCell cell = churn_between(lists[i - 1], lists[i]);
    out << lists[i - 1].week << ',' << lists[i].week << ',';
    if (cell.has_site_churn) out << cell.site_churn;
    else out << "na";
    out << ',';
    if (cell.has_url_churn) out << cell.internal_url_churn;
    else out << "na";
    out << '\n';
  }
}

void write_cost_ledger_csv(std::ostream& out,
                           const std::vector<WeekBuildStats>& weeks) {
  out << "week,provider,queries,speculative_queries,total_queries,"
         "query_price_usd,spend_usd,sites_examined,sites_accepted,"
         "sites_dropped,sites_missing,sites_quarantined,retries\n";
  constexpr search::SearchProvider kProviders[] = {
      search::SearchProvider::kGoogle, search::SearchProvider::kBing};
  const auto emit = [&out](const std::string& week,
                           search::SearchProvider provider,
                           const WeekBuildStats& stats) {
    const double price = search::query_price_usd(provider);
    const std::uint64_t total =
        stats.queries_billed + stats.speculative_queries;
    out << week << ',' << search::provider_name(provider) << ','
        << stats.queries_billed << ',' << stats.speculative_queries << ','
        << total << ',' << price << ','
        << static_cast<double>(total) * price << ',' << stats.sites_examined
        << ',' << stats.sites_accepted << ',' << stats.sites_dropped << ','
        << stats.sites_missing << ',' << stats.sites_quarantined << ','
        << stats.retries << '\n';
  };
  WeekBuildStats totals;
  for (const auto& stats : weeks) {
    for (const auto provider : kProviders)
      emit(std::to_string(stats.week), provider, stats);
    totals.sites_examined += stats.sites_examined;
    totals.sites_accepted += stats.sites_accepted;
    totals.sites_dropped += stats.sites_dropped;
    totals.sites_missing += stats.sites_missing;
    totals.sites_quarantined += stats.sites_quarantined;
    totals.queries_billed += stats.queries_billed;
    totals.speculative_queries += stats.speculative_queries;
    totals.retries += stats.retries;
  }
  for (const auto provider : kProviders) emit("total", provider, totals);
}

obs::ListBuildReport build_listbuild_report(
    const ListBuildResult& result, const obs::RunTelemetry& telemetry) {
  obs::ListBuildReport report;
  report.weeks = result.weeks.size();
  if (!result.weeks.empty()) report.start_week = result.weeks.front().week;

  std::array<std::uint64_t, net::kSearchFaultKindCount> quarantined_by{};
  for (std::size_t i = 0; i < result.weeks.size(); ++i) {
    const WeekBuildStats& stats = result.weeks[i];
    report.sites_examined += stats.sites_examined;
    report.sites_accepted += stats.sites_accepted;
    report.sites_dropped += stats.sites_dropped;
    report.sites_missing += stats.sites_missing;
    report.sites_quarantined += stats.sites_quarantined;
    report.queries_billed += stats.queries_billed;
    report.speculative_queries += stats.speculative_queries;
    report.retries += stats.retries;
    for (std::size_t kind = 0; kind < quarantined_by.size(); ++kind)
      quarantined_by[kind] += stats.quarantined_by[kind];

    obs::ListBuildReport::WeekLine line;
    line.week = stats.week;
    line.sites_accepted = stats.sites_accepted;
    line.sites_examined = stats.sites_examined;
    line.queries_billed = stats.queries_billed;
    line.speculative_queries = stats.speculative_queries;
    if (i > 0 && i < result.lists.size()) {
      const ChurnCell cell =
          churn_between(result.lists[i - 1], result.lists[i]);
      line.has_site_churn = cell.has_site_churn;
      line.site_churn = cell.site_churn;
      line.has_url_churn = cell.has_url_churn;
      line.internal_url_churn = cell.internal_url_churn;
    }
    report.week_lines.push_back(line);
  }

  const std::uint64_t total_queries =
      report.queries_billed + report.speculative_queries;
  for (const auto provider :
       {search::SearchProvider::kGoogle, search::SearchProvider::kBing}) {
    obs::ListBuildReport::ProviderLine line;
    line.provider = search::provider_name(provider);
    line.query_price_usd = search::query_price_usd(provider);
    line.spend_usd =
        static_cast<double>(total_queries) * line.query_price_usd;
    report.providers.push_back(std::move(line));
  }

  for (int kind = 1; kind < net::kSearchFaultKindCount; ++kind) {
    obs::ListBuildReport::FaultLine line;
    line.kind = std::string(
        net::to_string(static_cast<net::SearchFaultKind>(kind)));
    line.injected = telemetry.metrics.counter_or(
        "search.faults.injected." + line.kind);
    line.sites_quarantined = quarantined_by[static_cast<std::size_t>(kind)];
    report.faults.push_back(std::move(line));
  }

  report.telemetry = telemetry.enabled;
  if (telemetry.enabled) {
    report.trace_spans = telemetry.spans.size();
    report.trace_spans_dropped = telemetry.spans_dropped;
  }
  return report;
}

}  // namespace hispar::core
