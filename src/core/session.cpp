#include "core/session.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/analyses.h"
#include "core/journal.h"
#include "core/parallel.h"
#include "core/serialization.h"
#include "util/rng.h"

namespace hispar::core {

SessionCampaign::SessionCampaign(const web::SyntheticWeb& web,
                                 SessionConfig config)
    : web_(&web), config_(std::move(config)), context_(web, config_.base) {}

std::vector<std::size_t> SessionCampaign::session_pages(
    std::uint64_t seed, const UrlSet& set, std::size_t session_len) {
  std::vector<std::size_t> pages;
  if (set.page_indices.empty()) return pages;
  pages.push_back(set.page_indices.front());  // the landing page
  std::vector<std::size_t> internals(set.page_indices.begin() + 1,
                                     set.page_indices.end());
  // Fisher-Yates under a stream keyed by (seed, domain) only — the
  // visit order is a property of the list, not of the partitioning.
  util::Rng rng =
      util::Rng(seed).fork("session").fork(set.domain).fork("order");
  for (std::size_t i = internals.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(internals[i - 1], internals[j]);
  }
  const std::size_t take = std::min(session_len, internals.size());
  pages.insert(pages.end(), internals.begin(),
               internals.begin() + static_cast<std::ptrdiff_t>(take));
  return pages;
}

SessionCampaign::SessionResult SessionCampaign::run_session(
    const HisparList& list, std::size_t position) {
  const UrlSet& set = list.sets[position];
  const web::WebSite* site = web_->find_site(set.domain);
  if (site == nullptr)
    throw std::logic_error("session campaign: unknown domain " + set.domain);

  // A session is a unit of its own, fetched through the cold campaign's
  // fetch_page under the "session" stream root: every load, fault and
  // chaos stream is the cold key (domain, page, ordinal 0, attempt)
  // forked from that root, so a session campaign and a cold campaign
  // over the same seed draw independent decisions.
  ShardState state(*web_, context_.config, position,
                   util::Rng(context_.config.seed).fork("session"));
  // The client state this session threads across its pages. Allocated
  // even for a cold replay (warm == false) so stats stay well-defined,
  // but never handed to the loader then — a cold session is load-by-load
  // identical to the measurement campaign's protocol.
  browser::SessionState client(config_.cache_bytes);
  browser::SessionState* const warm_client = config_.warm ? &client : nullptr;

  SessionResult result;
  SiteObservation& observation = result.observation;
  observation.domain = set.domain;
  observation.bootstrap_rank = set.bootstrap_rank;
  observation.category = site->profile().category;

  // Every session page is fetched once (load ordinal 0).
  const auto fetch = [&](std::size_t page_index) {
    PageFetch fetch =
        fetch_page(context_, state, *site, page_index, 0, warm_client);
    observation.total_retries += fetch.outcome.attempts - 1;
    observation.outcomes.push_back(fetch.outcome);
    return fetch;
  };

  // The landing page opens the session; if it never loads, the user
  // never reaches the internal pages, so the site is quarantined and
  // the internals are skipped (the cold campaign quarantines exactly
  // the same way when every landing round fails).
  const std::vector<std::size_t> pages =
      session_pages(context_.config.seed, set, config_.session_len);
  bool landed = false;
  if (!pages.empty()) {
    PageFetch landing = fetch(pages.front());
    landed = landing.usable;
    if (landed) observation.landing = std::move(landing.metrics);
  }
  if (!landed) {
    observation.quarantined = true;
  } else {
    for (std::size_t i = 1; i < pages.size(); ++i) {
      PageFetch internal = fetch(pages[i]);
      if (internal.usable)
        observation.internals.push_back(std::move(internal.metrics));
    }
  }

  if (config_.warm) result.cache = client.cache.stats();
  if (state.metrics != nullptr && config_.warm) {
    // Session-cache lifetime counters; summed across sessions by the
    // position-ordered fold (sessions set no gauges).
    obs::MetricsRegistry& reg = *state.metrics;
    reg.counter("browser_cache.lookups") = result.cache.lookups;
    reg.counter("browser_cache.fresh_hits") = result.cache.fresh_hits;
    reg.counter("browser_cache.revalidations") = result.cache.revalidations;
    reg.counter("browser_cache.misses") = result.cache.misses;
    reg.counter("browser_cache.insertions") = result.cache.insertions;
    reg.counter("browser_cache.evictions") = result.cache.evictions;
  }
  if (state.tracer != nullptr) {
    obs::TraceSpan span;
    span.name = set.domain;
    span.cat = "session";
    span.ts_us = 0;
    span.dur_us = obs::to_trace_us(state.clock_s);
    span.tid = static_cast<std::uint32_t>(position) + 1;
    state.tracer->record(std::move(span));
  }
  result.telemetry = state.take();
  return result;
}

std::uint64_t SessionCampaign::checkpoint_digest(const HisparList& list) const {
  std::ostringstream os;
  os << "session-v1|" << campaign_config_digest(config_.base, list) << "|len|"
     << config_.session_len << "|cache|" << config_.cache_bytes << "|warm|"
     << (config_.warm ? 1 : 0);
  return util::fnv1a(os.str());
}

std::vector<SiteObservation> SessionCampaign::run(const HisparList& list) {
  if (config_.session_len == 0)
    throw std::invalid_argument(
        "session campaign: session_len must be >= 1 (a session without "
        "internal pages measures nothing)");

  const std::size_t shard_count = std::max<std::size_t>(1, config_.base.shards);
  const auto shards = shard_indices(list, shard_count);
  std::vector<SiteObservation> observations(list.sets.size());
  cache_stats_.assign(list.sets.size(), browser::CacheStats{});
  std::vector<obs::ShardTelemetry> session_telemetry(list.sets.size());
  telemetry_ = obs::RunTelemetry{};
  telemetry_.enabled = config_.base.observability.enabled;

  // Checkpointing: a session owns fully isolated state, so it is the
  // unit of resume — a session either completed (its observation, cache
  // counters and telemetry are on disk and splice back in) or re-runs
  // from scratch, making a resumed campaign bit-identical to an
  // uninterrupted one.
  std::vector<char> session_done(list.sets.size(), 0);
  const auto write_session = [&](std::ostream& out, std::size_t position) {
    append_session_block(out, position, observations[position],
                         cache_stats_[position],
                         if_present(session_telemetry[position]));
  };
  CheckpointJournal journal("session campaign", kSessionCheckpointTag,
                            config_.checkpoint_path);
  if (auto checkpoint = journal.open(
          read_session_checkpoint, [&] { return checkpoint_digest(list); },
          "campaign (seed/session-len/cache/list changed)")) {
    for (auto& block : checkpoint->sessions) {
      if (block.position >= observations.size()) continue;
      session_done[block.position] = 1;
      observations[block.position] = std::move(block.observation);
      cache_stats_[block.position] = block.cache;
      if (block.has_telemetry)
        session_telemetry[block.position] = std::move(block.telemetry);
    }
  }
  journal.rewrite([&](std::ostream& out) {
    for (std::size_t position = 0; position < observations.size(); ++position)
      if (session_done[position]) write_session(out, position);
  });

  // Sessions are embarrassingly parallel (no shared mutable state at
  // all); shards only batch the positions a worker picks up. Every
  // session writes to its own list-position slots, so no
  // synchronization is needed beyond the for_each_unit joins and the
  // journal's append lock.
  for_each_unit(shard_count, config_.base.jobs, [&](std::size_t shard) {
    for (std::size_t position : shards[shard]) {
      if (session_done[position]) continue;
      SessionResult result = run_session(list, position);
      observations[position] = std::move(result.observation);
      cache_stats_[position] = result.cache;
      if (config_.base.observability.enabled)
        session_telemetry[position] = std::move(result.telemetry);
      journal.append(
          [&](std::ostream& out) { write_session(out, position); });
    }
  });

  if (config_.base.observability.enabled) {
    // Fold in list-position order (sessions set no gauges) behind one
    // campaign-level span whose duration is the longest session's
    // virtual clock, read off its "session" span.
    std::vector<obs::TelemetryUnit> units;
    units.reserve(session_telemetry.size());
    for (std::size_t position = 0; position < session_telemetry.size();
         ++position)
      units.push_back({&session_telemetry[position],
                       "session." + std::to_string(position) + "."});
    obs::fold_unit_telemetry(
        telemetry_, units, "session campaign",
        [](const obs::ShardTelemetry& session) {
          std::int64_t end_us = 0;
          for (const auto& span : session.spans)
            if (span.cat == "session") end_us = std::max(end_us, span.dur_us);
          return end_us;
        });
  }
  return observations;
}

obs::SessionReport build_session_report(
    const std::vector<SiteObservation>& cold,
    const std::vector<SiteObservation>& warm,
    const std::vector<browser::CacheStats>& stats,
    const obs::RunTelemetry& telemetry, std::size_t session_len) {
  obs::SessionReport report;
  const CampaignSummary summary = summarize_campaign(warm);
  report.sites_total = warm.size();
  report.sessions_ok = summary.sites_ok;
  report.sessions_degraded = summary.sites_degraded;
  report.sessions_quarantined = summary.sites_quarantined;
  report.session_len = session_len;
  for (const auto& site : warm)
    for (const auto& outcome : site.outcomes)
      if (outcome.status != browser::LoadStatus::kFailed)
        ++report.pages_loaded;

  for (const auto& s : stats) {
    report.cache_lookups += s.lookups;
    report.cache_fresh_hits += s.fresh_hits;
    report.cache_revalidations += s.revalidations;
    report.cache_misses += s.misses;
    report.cache_insertions += s.insertions;
    report.cache_evictions += s.evictions;
  }

  const ColdWarmDelta delta = cold_warm_delta(cold, warm);
  for (const auto& line : delta.metrics) {
    obs::SessionReport::MetricLine out;
    out.metric = line.metric;
    out.has_values = line.has_values;
    out.cold_landing_median = line.cold_landing_median;
    out.cold_internal_median = line.cold_internal_median;
    out.warm_landing_median = line.warm_landing_median;
    out.warm_internal_median = line.warm_internal_median;
    report.metric_lines.push_back(std::move(out));
  }

  report.telemetry = telemetry.enabled;
  if (telemetry.enabled) {
    report.trace_spans = telemetry.spans.size();
    report.trace_spans_dropped = telemetry.spans_dropped;
  }
  return report;
}

}  // namespace hispar::core
