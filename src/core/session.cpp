#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/analyses.h"
#include "core/journal.h"
#include "core/parallel.h"
#include "core/serialization.h"
#include "util/rng.h"

namespace hispar::core {

namespace {

// Same retry-backoff ceiling as the measurement campaign (the exponent
// is clamped before exp2; see measurement.cpp).
constexpr double kMaxRetryBackoffScale = 32.0;

cdn::CdnHierarchyConfig cdn_config_for(const CampaignConfig& config) {
  cdn::CdnHierarchyConfig hierarchy;
  hierarchy.edge_pin = config.cdn_edge_pin;
  return hierarchy;
}

// Everything one browsing session mutates: the full network/CDN
// substrate, a virtual clock from 0, and an RNG forked from the
// campaign seed by domain — the session-scoped mirror of
// MeasurementCampaign::ShardState. Sessions never share state, so the
// output is independent of both the shard count and the job count.
struct SessionSubstrate {
  SessionSubstrate(const web::SyntheticWeb& web, const CampaignConfig& config,
                   const std::string& domain, std::size_t position)
      : latency(config.latency),
        cdn(web.cdn_registry(), latency, cdn_config_for(config)),
        resolver(config.resolver, latency),
        doh(config.use_doh
                ? std::make_unique<net::DohResolver>(resolver, config.doh)
                : nullptr),
        metrics(config.observability.enabled
                    ? std::make_unique<obs::MetricsRegistry>()
                    : nullptr),
        tracer(config.observability.enabled
                   ? std::make_unique<obs::Tracer>(config.observability.span_cap)
                   : nullptr),
        position(position),
        loader(browser::LoaderEnv{&latency, &web.cdn_registry(), &cdn,
                                  &resolver, config.vantage,
                                  obs_handle(config), doh.get(),
                                  config.cdn_edge_pin}),
        rng(util::Rng(config.seed).fork("session").fork(domain)) {
    resolver.set_metrics(metrics.get());
    cdn.set_metrics(metrics.get());
  }
  SessionSubstrate(const SessionSubstrate&) = delete;
  SessionSubstrate& operator=(const SessionSubstrate&) = delete;

  obs::ShardObs obs_handle(const CampaignConfig& config) const {
    obs::ShardObs handle;
    handle.metrics = metrics.get();
    handle.trace = tracer.get();
    handle.tid = static_cast<std::uint32_t>(position) + 1;
    handle.trace_objects = config.observability.trace_objects;
    return handle;
  }

  net::LatencyModel latency;
  cdn::CdnHierarchy cdn;
  net::CachingResolver resolver;
  std::unique_ptr<net::DohResolver> doh;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::Tracer> tracer;
  std::size_t position = 0;
  browser::PageLoader loader;
  util::Rng rng;
  double clock_s = 0.0;
  net::BreakerSet breakers;
  web::PageCache pages;
  DetectionScratch detect;
};

}  // namespace

SessionCampaign::SessionCampaign(const web::SyntheticWeb& web,
                                 SessionConfig config)
    : web_(&web),
      config_(std::move(config)),
      adblock_(browser::AdBlocker::easylist_lite()),
      hb_(browser::HbDetector::standard()),
      detector_(web.cdn_registry()),
      chaos_plan_(config_.base.chaos, config_.base.seed) {}

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

  const CampaignConfig& base = config_.base;
  SessionSubstrate state(*web_, base, set.domain, position);
  // The client state this session threads across its pages. Allocated
  // even for a cold replay (warm == false) so stats stay well-defined,
  // but never handed to the loader then — a cold session is load-by-load
  // identical to the measurement campaign's protocol.
  browser::SessionState client(config_.cache_bytes);

  const bool faulty = base.fault_profile.enabled();
  const bool chaotic = chaos_plan_.enabled();
  const int max_attempts =
      (faulty || chaotic) ? 1 + std::max(0, base.max_page_retries) : 1;
  // Fault/chaos streams are keyed like the measurement campaign's but
  // under the "session" namespace, so a session campaign and a cold
  // campaign over the same seed draw independent fault decisions.
  const util::Rng fault_base =
      util::Rng(base.seed).fork("session").fork("faults").fork(set.domain);
  const util::Rng chaos_base =
      util::Rng(base.seed).fork("session").fork("chaos-roll").fork(set.domain);

  SessionResult result;
  SiteObservation& observation = result.observation;
  observation.domain = set.domain;
  observation.bootstrap_rank = set.bootstrap_rank;
  observation.category = site->profile().category;

  const std::vector<std::size_t> pages =
      session_pages(base.seed, set, config_.session_len);

  // One campaign-level fetch of `page_index` (with retries, mirroring
  // MeasurementCampaign::fetch_page) through this session's loader and
  // client state. Returns whether a usable load landed in `metrics`.
  const auto fetch = [&](std::size_t page_index, PageMetrics& metrics,
                         FetchOutcome& outcome) {
    const web::WebPage& page = state.pages.get(*site, page_index);
    outcome.page_index = page_index;
    outcome.load_ordinal = 0;  // every session page is fetched once

    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      browser::LoadOptions options = base.load_options;
      options.start_time_s = state.clock_s;
      options.page_timeout_ms = base.page_timeout_s * 1000.0;
      options.session = config_.warm ? &client : nullptr;
      state.clock_s += base.inter_fetch_gap_s;

      util::Rng load_rng =
          state.rng.fork(page_index).fork(static_cast<std::uint64_t>(0));
      if (attempt > 0)
        load_rng =
            load_rng.fork("retry").fork(static_cast<std::uint64_t>(attempt));

      std::optional<net::FaultInjector> injector;
      if (faulty) {
        injector.emplace(base.fault_profile,
                         fault_base.fork(page_index)
                             .fork(static_cast<std::uint64_t>(0))
                             .fork(static_cast<std::uint64_t>(attempt)));
        options.faults = &*injector;
      }
      std::optional<net::ChaosInjector> chaos_injector;
      if (chaotic) {
        chaos_injector.emplace(chaos_plan_,
                               chaos_base.fork(page_index)
                                   .fork(static_cast<std::uint64_t>(0))
                                   .fork(static_cast<std::uint64_t>(attempt)));
        options.chaos = &*chaos_injector;
        options.breakers = &state.breakers;
        options.hedge_dns = true;
        options.deadline_budget = true;
      }

      const browser::LoadResult load = state.loader.load(page, load_rng, options);
      outcome.attempts = attempt + 1;
      outcome.status = load.status;
      outcome.failure = load.root_failure;
      outcome.failed_objects = load.failed_objects;
      outcome.breaker_denials = load.breaker_denials;

      if (state.metrics != nullptr) {
        obs::MetricsRegistry& reg = *state.metrics;
        ++reg.counter("loader.loads");
        reg.counter("loader.objects") += load.har.entries.size();
        reg.counter("loader.bytes") +=
            static_cast<std::uint64_t>(std::llround(load.har.total_bytes()));
        reg.counter("loader.handshakes") +=
            static_cast<std::uint64_t>(load.handshakes);
        reg.counter("loader.object_retries") +=
            static_cast<std::uint64_t>(load.object_retries);
        reg.counter("loader.failed_objects") +=
            static_cast<std::uint64_t>(load.failed_objects);
        if (load.watchdog_abort) ++reg.counter("loader.watchdog_aborts");
        if (injector) {
          const auto& injected = injector->injected();
          for (int kind = 1; kind < net::kFaultKindCount; ++kind)
            if (injected[static_cast<std::size_t>(kind)] > 0)
              reg.counter("faults.injected." +
                          std::string(net::to_string(
                              static_cast<net::FaultKind>(kind)))) +=
                  injected[static_cast<std::size_t>(kind)];
        }
        if (chaos_injector) {
          const auto& injected = chaos_injector->injected();
          for (int kind = 1; kind < net::kFaultKindCount; ++kind)
            if (injected[static_cast<std::size_t>(kind)] > 0)
              reg.counter("chaos.injected." +
                          std::string(net::to_string(
                              static_cast<net::FaultKind>(kind)))) +=
                  injected[static_cast<std::size_t>(kind)];
        }
        if (load.breaker_denials > 0)
          reg.counter("breaker.denials") +=
              static_cast<std::uint64_t>(load.breaker_denials);
      }
      if (state.tracer != nullptr) {
        obs::TraceSpan span;
        span.name = set.domain;
        span.cat = "load";
        span.ts_us = obs::to_trace_us(options.start_time_s);
        span.dur_us = obs::to_trace_us(load.on_load_ms / 1000.0);
        span.tid = static_cast<std::uint32_t>(position) + 1;
        span.args.emplace_back("page", std::to_string(page_index));
        span.args.emplace_back("attempt", std::to_string(attempt));
        span.args.emplace_back("status",
                               std::string(browser::to_string(load.status)));
        state.tracer->record(std::move(span));
      }

      if (load.status != browser::LoadStatus::kFailed) {
        metrics = extract_page_metrics(page, load, state.detect, adblock_,
                                       hb_, detector_, base.wait_sample_cap,
                                       state.metrics.get());
        return true;
      }
      if (attempt + 1 < max_attempts)
        state.clock_s +=
            base.retry_backoff_s *
            std::min(kMaxRetryBackoffScale,
                     std::exp2(static_cast<double>(std::min(attempt, 62))));
    }
    return false;  // permanently failed
  };

  // The landing page opens the session; if it never loads, the user
  // never reaches the internal pages, so the site is quarantined and
  // the internals are skipped (the cold campaign quarantines exactly
  // the same way when every landing round fails).
  bool landed = false;
  if (!pages.empty()) {
    FetchOutcome outcome;
    PageMetrics metrics;
    landed = fetch(pages.front(), metrics, outcome);
    observation.total_retries += outcome.attempts - 1;
    observation.outcomes.push_back(outcome);
    if (landed) observation.landing = std::move(metrics);
  }
  if (!landed) {
    observation.quarantined = true;
  } else {
    for (std::size_t i = 1; i < pages.size(); ++i) {
      FetchOutcome outcome;
      PageMetrics metrics;
      const bool usable = fetch(pages[i], metrics, outcome);
      observation.total_retries += outcome.attempts - 1;
      observation.outcomes.push_back(outcome);
      if (usable) observation.internals.push_back(std::move(metrics));
    }
  }

  if (config_.warm) result.cache = client.cache.stats();
  if (state.metrics != nullptr && config_.warm) {
    // Session-cache lifetime counters; summed across sessions by the
    // position-ordered merge (sessions set no gauges).
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

  if (state.metrics != nullptr) result.telemetry.metrics = std::move(*state.metrics);
  if (state.tracer != nullptr) {
    result.telemetry.spans = state.tracer->ordered_spans();
    result.telemetry.spans_dropped = state.tracer->dropped();
  }
  result.clock_end_s = state.clock_s;
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
    // Merge in list-position order: counters/histograms sum (sessions
    // set no gauges), spans concatenate behind one campaign-level span
    // whose duration is the longest session's virtual clock.
    for (std::size_t position = 0; position < session_telemetry.size();
         ++position) {
      const obs::ShardTelemetry& telemetry = session_telemetry[position];
      if (telemetry.empty()) continue;
      telemetry_.metrics.merge_from(
          telemetry.metrics, "session." + std::to_string(position) + ".");
      telemetry_.spans.insert(telemetry_.spans.end(), telemetry.spans.begin(),
                              telemetry.spans.end());
      telemetry_.spans_dropped += telemetry.spans_dropped;
    }
    std::int64_t campaign_end_us = 0;
    for (const auto& span : telemetry_.spans)
      if (span.cat == "session")
        campaign_end_us = std::max(campaign_end_us, span.dur_us);
    obs::TraceSpan campaign_span;
    campaign_span.name = "session campaign";
    campaign_span.cat = "campaign";
    campaign_span.ts_us = 0;
    campaign_span.dur_us = campaign_end_us;
    campaign_span.tid = 0;
    telemetry_.spans.insert(telemetry_.spans.begin(),
                            std::move(campaign_span));
    telemetry_.metrics.counter("trace.spans_dropped") =
        telemetry_.spans_dropped;
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
