#include "core/measurement.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/journal.h"
#include "core/parallel.h"
#include "core/serialization.h"
#include "util/stats.h"
#include "util/url.h"
#include "web/mime.h"

namespace hispar::core {

double SiteObservation::success_rate() const {
  if (outcomes.empty()) return 1.0;
  std::size_t ok = 0;
  for (const auto& outcome : outcomes)
    if (outcome.status != browser::LoadStatus::kFailed) ++ok;
  return static_cast<double>(ok) / static_cast<double>(outcomes.size());
}

bool SiteObservation::degraded() const {
  if (quarantined) return true;
  for (const auto& outcome : outcomes)
    if (outcome.status != browser::LoadStatus::kOk) return true;
  return false;
}

double SiteObservation::internal_median(
    const std::function<double(const PageMetrics&)>& fn) const {
  if (internals.empty())
    throw std::logic_error("SiteObservation: no internal pages");
  std::vector<double> values;
  values.reserve(internals.size());
  for (const auto& metrics : internals) values.push_back(fn(metrics));
  return util::median(values);
}

std::set<std::string> SiteObservation::internal_third_parties() const {
  std::set<std::string> all;
  for (const auto& metrics : internals)
    all.insert(metrics.third_parties.begin(), metrics.third_parties.end());
  return all;
}

CampaignSummary summarize_campaign(const std::vector<SiteObservation>& sites) {
  CampaignSummary summary;
  for (const auto& site : sites) {
    if (site.quarantined)
      ++summary.sites_quarantined;
    else if (site.degraded())
      ++summary.sites_degraded;
    else
      ++summary.sites_ok;
    summary.total_retries += static_cast<std::uint64_t>(site.total_retries);
    for (const auto& outcome : site.outcomes) {
      if (outcome.status == browser::LoadStatus::kFailed)
        ++summary.failed_fetches;
      else if (outcome.status == browser::LoadStatus::kDegraded)
        ++summary.degraded_fetches;
    }
  }
  return summary;
}

namespace {

cdn::CdnHierarchyConfig cdn_config_for(const CampaignConfig& config) {
  cdn::CdnHierarchyConfig hierarchy;
  hierarchy.edge_pin = config.cdn_edge_pin;
  return hierarchy;
}

}  // namespace

FetchContext::FetchContext(const web::SyntheticWeb& web, CampaignConfig config)
    : config(std::move(config)),
      adblock(browser::AdBlocker::easylist_lite()),
      hb(browser::HbDetector::standard()),
      detector(web.cdn_registry()),
      chaos_plan(this->config.chaos, this->config.seed) {}

ShardState::ShardState(const web::SyntheticWeb& web,
                       const CampaignConfig& config, std::size_t shard_id,
                       util::Rng rng)
    : obs::UnitRecorder(config.observability),
      latency(config.latency),
      cdn(web.cdn_registry(), latency, cdn_config_for(config)),
      resolver(config.resolver, latency),
      doh(config.use_doh
              ? std::make_unique<net::DohResolver>(resolver, config.doh)
              : nullptr),
      shard_id(shard_id),
      loader(browser::LoaderEnv{&latency, &web.cdn_registry(), &cdn,
                                &resolver, config.vantage,
                                obs_handle(config), doh.get(),
                                config.cdn_edge_pin}),
      rng(rng) {
  resolver.set_metrics(metrics.get());
  cdn.set_metrics(metrics.get());
}

obs::ShardObs ShardState::obs_handle(const CampaignConfig& config) const {
  obs::ShardObs handle;
  handle.metrics = metrics.get();
  handle.trace = tracer.get();
  handle.tid = static_cast<std::uint32_t>(shard_id) + 1;
  handle.trace_objects = config.observability.trace_objects;
  return handle;
}

MeasurementCampaign::MeasurementCampaign(const web::SyntheticWeb& web,
                                         CampaignConfig config)
    : web_(&web),
      context_(web, std::move(config)),
      local_(web, context_.config, 0,
             util::Rng(context_.config.seed).fork(std::uint64_t{0})) {}

const web::WebSite& MeasurementCampaign::require_site(
    const std::string& domain) const {
  const web::WebSite* site = web_->find_site(domain);
  if (site == nullptr)
    throw std::logic_error("campaign: unknown domain " + domain);
  return *site;
}

PageFetch fetch_page(const FetchContext& context, ShardState& state,
                     const web::WebSite& site, std::size_t page_index,
                     int load_ordinal, browser::SessionState* session) {
  const CampaignConfig& config = context.config;
  // Materialize through the unit's page cache: the 10 landing rounds
  // (and page-level retries below) reuse one generated WebPage. The
  // reference stays valid across this fetch — only another page of
  // another (site, index) can evict it.
  const web::WebPage& page = state.pages.get(site, page_index);
  const bool faulty = config.fault_profile.enabled();
  const bool chaotic = context.chaos_plan.enabled();
  const int max_attempts =
      (faulty || chaotic) ? 1 + std::max(0, config.max_page_retries) : 1;

  PageFetch fetch;
  fetch.outcome.page_index = page_index;
  fetch.outcome.load_ordinal = load_ordinal;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    browser::LoadOptions options = config.load_options;
    options.start_time_s = state.clock_s;
    // The page watchdog applies to every fetch — a fault-free
    // pathological page must not run unbounded (goldens are unaffected:
    // their synthetic pages finish well inside the default 60 s).
    options.page_timeout_ms = config.page_timeout_s * 1000.0;
    options.session = session;
    state.clock_s += config.inter_fetch_gap_s;

    // Attempt 0 uses exactly the pre-fault RNG keying, so a fault-free
    // campaign replays the historical streams bit for bit; retries get
    // fresh forks of the same key.
    util::Rng load_rng = state.rng.fork(site.domain())
                             .fork(page_index)
                             .fork(static_cast<std::uint64_t>(load_ordinal));
    if (attempt > 0)
      load_rng = load_rng.fork("retry").fork(static_cast<std::uint64_t>(attempt));

    // Fault decisions come from their own stream, keyed by everything
    // that identifies this attempt and nothing that depends on thread
    // scheduling — the --jobs determinism guarantee holds under faults.
    std::optional<net::FaultInjector> injector;
    if (faulty) {
      injector.emplace(
          config.fault_profile,
          state.rng.fork("faults")
              .fork(site.domain())
              .fork(page_index)
              .fork(static_cast<std::uint64_t>(load_ordinal))
              .fork(static_cast<std::uint64_t>(attempt)));
      options.faults = &*injector;
    }
    // Chaos strike decisions get their own per-attempt stream, keyed
    // exactly like fault decisions (so --jobs / resume determinism
    // holds), and the defense layer is armed alongside the oracle.
    std::optional<net::ChaosInjector> chaos_injector;
    if (chaotic) {
      chaos_injector.emplace(
          context.chaos_plan,
          state.rng.fork("chaos-roll")
              .fork(site.domain())
              .fork(page_index)
              .fork(static_cast<std::uint64_t>(load_ordinal))
              .fork(static_cast<std::uint64_t>(attempt)));
      options.chaos = &*chaos_injector;
      options.breakers = &state.breakers;
      options.hedge_dns = true;
      options.deadline_budget = true;
    }

    const browser::LoadResult result = state.loader.load(page, load_rng, options);
    fetch.outcome.attempts = attempt + 1;
    fetch.outcome.status = result.status;
    fetch.outcome.failure = result.root_failure;
    fetch.outcome.failed_objects = result.failed_objects;
    fetch.outcome.breaker_denials = result.breaker_denials;

    if (state.metrics != nullptr) {
      obs::MetricsRegistry& reg = *state.metrics;
      ++reg.counter("loader.loads");
      reg.counter("loader.objects") += result.har.entries.size();
      reg.counter("loader.bytes") +=
          static_cast<std::uint64_t>(std::llround(result.har.total_bytes()));
      reg.counter("loader.handshakes") +=
          static_cast<std::uint64_t>(result.handshakes);
      reg.counter("loader.x_cache_hits") +=
          static_cast<std::uint64_t>(result.x_cache_hits);
      reg.counter("loader.x_cache_misses") +=
          static_cast<std::uint64_t>(result.x_cache_misses);
      reg.counter("loader.object_retries") +=
          static_cast<std::uint64_t>(result.object_retries);
      reg.counter("loader.failed_objects") +=
          static_cast<std::uint64_t>(result.failed_objects);
      if (result.watchdog_abort) ++reg.counter("loader.watchdog_aborts");
      if (injector) {
        const auto& injected = injector->injected();
        for (int kind = 1; kind < net::kFaultKindCount; ++kind)
          if (injected[static_cast<std::size_t>(kind)] > 0)
            reg.counter("faults.injected." +
                        std::string(net::to_string(
                            static_cast<net::FaultKind>(kind)))) +=
                injected[static_cast<std::size_t>(kind)];
      }
      // Chaos-off runs must leave the metrics artifact untouched, so
      // every defense counter appears only when it actually fired.
      if (chaos_injector) {
        const auto& injected = chaos_injector->injected();
        for (int kind = 1; kind < net::kFaultKindCount; ++kind)
          if (injected[static_cast<std::size_t>(kind)] > 0)
            reg.counter("chaos.injected." +
                        std::string(net::to_string(
                            static_cast<net::FaultKind>(kind)))) +=
                injected[static_cast<std::size_t>(kind)];
      }
      if (result.breaker_denials > 0)
        reg.counter("breaker.denials") +=
            static_cast<std::uint64_t>(result.breaker_denials);
      if (result.dns_hedges > 0)
        reg.counter("dns.hedge.fired") +=
            static_cast<std::uint64_t>(result.dns_hedges);
      if (result.dns_hedge_wins > 0)
        reg.counter("dns.hedge.won") +=
            static_cast<std::uint64_t>(result.dns_hedge_wins);
    }
    if (state.tracer != nullptr) {
      obs::TraceSpan span;
      span.name = site.domain();
      span.cat = "load";
      span.ts_us = obs::to_trace_us(options.start_time_s);
      span.dur_us = obs::to_trace_us(result.on_load_ms / 1000.0);
      span.tid = static_cast<std::uint32_t>(state.shard_id) + 1;
      span.args.emplace_back("page", std::to_string(page_index));
      span.args.emplace_back("ordinal", std::to_string(load_ordinal));
      span.args.emplace_back("attempt", std::to_string(attempt));
      span.args.emplace_back("status",
                             std::string(browser::to_string(result.status)));
      state.tracer->record(std::move(span));
    }

    if (result.status != browser::LoadStatus::kFailed) {
      fetch.metrics = extract_page_metrics(
          page, result, state.detect, context.adblock, context.hb,
          context.detector, config.wait_sample_cap, state.metrics.get());
      fetch.usable = true;
      return fetch;
    }
    // Failed load: back off on the unit clock before re-fetching.
    if (attempt + 1 < max_attempts)
      state.clock_s += retry_backoff_s(config.retry_backoff_s, attempt);
  }
  return fetch;  // permanently failed (usable == false)
}

PageMetrics extract_page_metrics(const web::WebPage& page,
                                 const browser::LoadResult& result,
                                 DetectionScratch& scratch,
                                 const browser::AdBlocker& adblock,
                                 const browser::HbDetector& hb,
                                 const cdn::CdnDetector& detector,
                                 std::size_t wait_sample_cap,
                                 obs::MetricsRegistry* metrics) {
  const browser::HarLog& har = result.har;
  DetectionScratch& d = scratch;

  PageMetrics m;
  m.bytes = har.total_bytes();
  m.objects = static_cast<double>(har.object_count());
  m.plt_ms = result.plt_ms;
  m.on_load_ms = result.on_load_ms;
  m.speed_index_ms = result.speed_index_ms;
  m.handshakes = result.handshakes;
  m.handshake_time_ms = result.handshake_time_ms;
  m.dns_lookups = result.dns_lookups;
  m.dns_time_ms = result.dns_time_ms;
  m.x_cache_hits = result.x_cache_hits;
  m.x_cache_misses = result.x_cache_misses;
  m.is_http = page.url.scheme == util::Scheme::kHttp;
  m.mixed_content = har.has_mixed_content();
  m.hints_total = page.hints.total();  // DOM inspection (§5.5)

  // The page's own registrable domain, computed once per load instead
  // of once per entry (is_third_party recomputes both sides).
  const std::string page_rd = util::registrable_domain(page.url.host);
  d.hb_hosts.clear();
  d.hb_urls.clear();
  ++d.load_stamp;
  std::size_t unique_hosts = 0;
  std::size_t tracking_requests = 0;
  const bool shared_filters = adblock.filters() == hb.filters();

  double cacheable_bytes = 0.0;
  double cdn_bytes = 0.0;
  for (const auto& entry : har.entries) {
    if (entry.cacheable)
      cacheable_bytes += entry.body_size;
    else
      ++m.noncacheable_objects;
    // Content mix from HAR MIME types (§5.2).
    const auto category = web::categorize_mime_type(entry.mime_type);
    m.mix_fractions[static_cast<std::size_t>(category)] += entry.body_size;
    // CDN classification via cdnfinder heuristics (§5.1), memoized on
    // the full (host, CNAME, headers) tuple classify() reads.
    d.key_buf.assign(entry.host);
    d.key_buf.push_back('\n');
    if (entry.dns_cname) {
      d.key_buf.push_back('@');
      d.key_buf.append(*entry.dns_cname);
    }
    entry.response_headers.for_each_line(
        [&](std::string_view name, std::string_view value) {
          d.key_buf.push_back('\n');
          d.key_buf.append(name);
          d.key_buf.append(": ");
          d.key_buf.append(value);
        });
    const std::uint32_t fetch_id = d.fetch_keys.intern(d.key_buf);
    if (fetch_id == d.via_cdn.size()) {
      const cdn::ObservedFetch fetch{entry.host, entry.dns_cname,
                                     entry.response_headers.lines()};
      d.via_cdn.push_back(detector.classify(fetch).via_cdn ? 1 : 0);
    }
    if (d.via_cdn[fetch_id] != 0) cdn_bytes += entry.body_size;
    // Third parties by registrable domain (§6.2), host memoized.
    const std::uint32_t host_id = d.hosts.intern(entry.host);
    if (host_id == d.registrable.size()) {
      d.registrable.push_back(util::registrable_domain(entry.host));
      d.host_stamp.push_back(0);
    }
    // Distinct hosts (HarLog::unique_domains), counted off the memo ids;
    // a host's registrable domain is a third party or not for the whole
    // load, so it is checked once per distinct host.
    if (d.host_stamp[host_id] != d.load_stamp) {
      d.host_stamp[host_id] = d.load_stamp;
      ++unique_hosts;
      if (d.registrable[host_id] != page_rd)
        m.third_parties.insert(d.registrable[host_id]);
    }
    // Tracker / header-bidding pattern scans (§6.3), URL memoized: one
    // pass when both detectors view one filter set, else one per set.
    const std::uint32_t url_id = d.urls.intern(entry.url);
    if (url_id == d.url_flags.size()) {
      d.url_flags.push_back(static_cast<std::uint8_t>(
          shared_filters
              ? adblock.filters()->flags(entry.url)
              : adblock.tags(entry.url) | hb.tags(entry.url)));
    }
    const std::uint8_t flags = d.url_flags[url_id];
    if ((flags & browser::kTrackerTag) != 0) ++tracking_requests;
    if ((flags & browser::kHbExchangeTag) != 0)
      d.hb_hosts.push_back(entry.host);
    if ((flags & browser::kHbCreativeTag) != 0)
      d.hb_urls.push_back(entry.url);
    // Per-object wait phase (§5.6, Fig. 7); memory-capped, see
    // PageMetrics::wait_samples_ms.
    if (m.wait_samples_ms.size() < wait_sample_cap)
      m.wait_samples_ms.push_back(entry.timings.wait);
  }
  m.unique_domains = static_cast<double>(unique_hosts);
  if (metrics != nullptr && har.entries.size() > m.wait_samples_ms.size())
    metrics->counter("loader.wait_samples_dropped") +=
        har.entries.size() - m.wait_samples_ms.size();
  if (m.bytes > 0.0) {
    m.cacheable_bytes_fraction = cacheable_bytes / m.bytes;
    m.cdn_bytes_fraction = cdn_bytes / m.bytes;
    for (auto& fraction : m.mix_fractions) fraction /= m.bytes;
  }

  // Dependency depths via DevTools-style initiator tracking (§5.4).
  for (const auto& object : page.objects) {
    const auto depth =
        static_cast<std::size_t>(std::min(object.depth, 5));
    ++m.depth_counts[depth];
  }

  // §6.3 aggregation, replicating AdBlocker::count_blocked and
  // HbDetector::analyze over the memoized per-URL verdicts: blocked
  // entries count one each; header bidding needs >= 2 distinct exchange
  // hosts; ad slots are distinct creative URLs.
  m.tracking_requests = static_cast<double>(tracking_requests);
  std::sort(d.hb_hosts.begin(), d.hb_hosts.end());
  d.hb_hosts.erase(std::unique(d.hb_hosts.begin(), d.hb_hosts.end()),
                   d.hb_hosts.end());
  std::sort(d.hb_urls.begin(), d.hb_urls.end());
  d.hb_urls.erase(std::unique(d.hb_urls.begin(), d.hb_urls.end()),
                  d.hb_urls.end());
  m.header_bidding = d.hb_hosts.size() >= 2;
  m.hb_ad_slots = static_cast<double>(d.hb_urls.size());
  return m;
}

PageMetrics MeasurementCampaign::median_metrics(
    const std::vector<PageMetrics>& loads) {
  if (loads.empty())
    throw std::invalid_argument("median_metrics: no loads");
  if (loads.size() == 1) return loads.front();

  PageMetrics out = loads.front();  // page identity from load 1
  // Bools are per-load detections, not page identity: header bidding is
  // a stochastic auction and HTTPS redirects can differ between loads,
  // so the median observation takes a strict majority vote; mixed
  // content is sticky — one tainted load flags the page (§6.1).
  std::size_t http_votes = 0;
  std::size_t hb_votes = 0;
  bool any_mixed = false;
  for (const auto& load : loads) {
    http_votes += load.is_http ? 1u : 0u;
    hb_votes += load.header_bidding ? 1u : 0u;
    any_mixed = any_mixed || load.mixed_content;
  }
  out.is_http = 2 * http_votes > loads.size();
  out.header_bidding = 2 * hb_votes > loads.size();
  out.mixed_content = any_mixed;

  // One scratch buffer for every field: gather, sort in place, read the
  // type-7 median (util::median on a copy computes the same value).
  std::vector<double> scratch;
  scratch.reserve(loads.size());
  const auto median_field = [&](double PageMetrics::* field) {
    scratch.clear();
    for (const auto& load : loads) scratch.push_back(load.*field);
    out.*field = util::median_inplace(scratch);
  };
  median_field(&PageMetrics::bytes);
  median_field(&PageMetrics::objects);
  median_field(&PageMetrics::plt_ms);
  median_field(&PageMetrics::on_load_ms);
  median_field(&PageMetrics::speed_index_ms);
  median_field(&PageMetrics::noncacheable_objects);
  median_field(&PageMetrics::cacheable_bytes_fraction);
  median_field(&PageMetrics::cdn_bytes_fraction);
  median_field(&PageMetrics::x_cache_hits);
  median_field(&PageMetrics::x_cache_misses);
  median_field(&PageMetrics::unique_domains);
  median_field(&PageMetrics::hints_total);
  median_field(&PageMetrics::handshakes);
  median_field(&PageMetrics::handshake_time_ms);
  median_field(&PageMetrics::dns_lookups);
  median_field(&PageMetrics::dns_time_ms);
  median_field(&PageMetrics::tracking_requests);
  median_field(&PageMetrics::hb_ad_slots);
  for (std::size_t i = 0; i < out.mix_fractions.size(); ++i) {
    scratch.clear();
    for (const auto& load : loads) scratch.push_back(load.mix_fractions[i]);
    out.mix_fractions[i] = util::median_inplace(scratch);
  }
  for (std::size_t i = 0; i < out.depth_counts.size(); ++i) {
    scratch.clear();
    for (const auto& load : loads) scratch.push_back(load.depth_counts[i]);
    out.depth_counts[i] = util::median_inplace(scratch);
  }
  out.third_parties.clear();
  out.wait_samples_ms.clear();
  for (const auto& load : loads) {
    out.third_parties.insert(load.third_parties.begin(),
                             load.third_parties.end());
    out.wait_samples_ms.insert(out.wait_samples_ms.end(),
                               load.wait_samples_ms.begin(),
                               load.wait_samples_ms.end());
  }
  return out;
}

void MeasurementCampaign::run_shard(ShardState& state, const HisparList& list,
                                    const std::vector<std::size_t>& positions,
                                    std::vector<SiteObservation>& observations) {
  std::vector<std::vector<PageMetrics>> landing_loads(positions.size());
  // Per-site virtual-clock activity window [first fetch start, clock
  // after last fetch] for the "site" trace spans.
  std::vector<std::pair<double, double>> windows(
      positions.size(), {-1.0, 0.0});
  const auto note_window = [&](std::size_t i, double start) {
    if (windows[i].first < 0.0) windows[i].first = start;
    windows[i].second = state.clock_s;
  };
  std::uint64_t fetches = 0;

  // Landing pages: `landing_loads` interleaved rounds over the shard's
  // sites (the paper shuffles and iterates the landing set 10 times,
  // §3.1; here each shard is one vantage point running that protocol).
  for (int round = 0; round < context_.config.landing_loads; ++round) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const UrlSet& set = list.sets[positions[i]];
      const web::WebSite& site = require_site(set.domain);
      const double fetch_start_s = state.clock_s;
      PageFetch fetch = fetch_page(context_, state, site, 0, round);
      note_window(i, fetch_start_s);
      ++fetches;
      SiteObservation& observation = observations[positions[i]];
      observation.total_retries += fetch.outcome.attempts - 1;
      observation.outcomes.push_back(fetch.outcome);
      if (fetch.usable) landing_loads[i].push_back(std::move(fetch.metrics));
    }
  }

  // Internal pages: position-interleaved single fetches. A fetch that
  // fails even after retries drops that internal page from the
  // observation — the paper discarded failed loads the same way — but
  // the outcome still records it.
  std::size_t max_internal = 0;
  for (std::size_t position : positions)
    max_internal =
        std::max(max_internal, list.sets[position].page_indices.size());
  for (std::size_t page_pos = 1; page_pos < max_internal; ++page_pos) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const UrlSet& set = list.sets[positions[i]];
      if (page_pos >= set.page_indices.size()) continue;
      const web::WebSite& site = require_site(set.domain);
      const double fetch_start_s = state.clock_s;
      PageFetch fetch =
          fetch_page(context_, state, site, set.page_indices[page_pos], 0);
      note_window(i, fetch_start_s);
      ++fetches;
      SiteObservation& observation = observations[positions[i]];
      observation.total_retries += fetch.outcome.attempts - 1;
      observation.outcomes.push_back(fetch.outcome);
      if (fetch.usable)
        observation.internals.push_back(std::move(fetch.metrics));
    }
  }

  for (std::size_t i = 0; i < positions.size(); ++i) {
    const UrlSet& set = list.sets[positions[i]];
    SiteObservation& observation = observations[positions[i]];
    observation.domain = set.domain;
    observation.bootstrap_rank = set.bootstrap_rank;
    observation.category = require_site(set.domain).profile().category;
    if (landing_loads[i].empty()) {
      // Every landing load failed: quarantine the site (the paper drops
      // sites that never complete); the default-constructed landing
      // metrics are never fed to analyses.
      observation.quarantined = true;
    } else {
      observation.landing = median_metrics(std::move(landing_loads[i]));
    }
  }

  if (state.tracer != nullptr) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (windows[i].first < 0.0) continue;  // site never fetched
      obs::TraceSpan span;
      span.name = list.sets[positions[i]].domain;
      span.cat = "site";
      span.ts_us = obs::to_trace_us(windows[i].first);
      span.dur_us = obs::to_trace_us(windows[i].second - windows[i].first);
      span.tid = static_cast<std::uint32_t>(state.shard_id) + 1;
      state.tracer->record(std::move(span));
    }
    obs::TraceSpan span;
    span.name = "shard " + std::to_string(state.shard_id);
    span.cat = "shard";
    span.ts_us = 0;
    span.dur_us = obs::to_trace_us(state.clock_s);
    span.tid = static_cast<std::uint32_t>(state.shard_id) + 1;
    state.tracer->record(std::move(span));
  }
  if (state.metrics != nullptr) {
    // Shard-scoped values live in gauges; the campaign merge prefixes
    // them "shard.<id>." so they stay distinguishable.
    state.metrics->gauge("clock_end_s") = state.clock_s;
    state.metrics->gauge("sites") = static_cast<double>(positions.size());
    state.metrics->gauge("fetches") = static_cast<double>(fetches);
    state.metrics->counter("cdn.lru_evictions") = state.cdn.lru_evictions();
    // Breaker end state, only under chaos (the set stays empty
    // otherwise, keeping chaos-off metrics artifacts byte-identical).
    if (!state.breakers.empty()) {
      state.metrics->gauge("breaker.scopes") =
          static_cast<double>(state.breakers.records().size());
      if (state.breakers.total_times_opened() > 0)
        state.metrics->counter("breaker.opened") =
            state.breakers.total_times_opened();
    }
  }
}

namespace {

// Canonical serialization of the per-vantage substrate knobs. Appended
// to the digest only when it differs from the defaults' key, so every
// digest computed before the knobs existed — including on-disk
// checkpoints and the pinned goldens — is reproduced exactly.
std::string substrate_key(const CampaignConfig& config) {
  std::ostringstream os;
  os.precision(17);
  for (int from = 0; from < net::kRegionCount; ++from)
    for (int to = 0; to < net::kRegionCount; ++to)
      os << config.latency.rtt_ms[from][to] << ',';
  os << config.latency.jitter_sigma << '|' << config.latency.access_ms << '|'
     << config.latency.bandwidth_bytes_per_ms << '|' << config.resolver.name
     << '|' << config.resolver.cache_shards << '|'
     << config.resolver.client_rtt_ms << '|'
     << static_cast<int>(config.resolver.resolver_region) << '|'
     << config.resolver.processing_ms << '|' << config.use_doh << '|'
     << config.doh.connection_setup_ms << '|'
     << config.doh.per_query_overhead_ms << '|'
     << (config.cdn_edge_pin ? static_cast<int>(*config.cdn_edge_pin) : -1);
  return os.str();
}

}  // namespace

std::uint64_t campaign_config_digest(const CampaignConfig& config,
                                     const HisparList& list) {
  std::ostringstream os;
  os.precision(17);
  const auto& lo = config.load_options;
  os << "v1|" << config.seed << '|' << config.shards << '|'
     << config.landing_loads << '|' << config.inter_fetch_gap_s << '|'
     << static_cast<int>(config.vantage) << '|' << config.wait_sample_cap
     << '|' << lo.use_resource_hints << lo.model_cdn_warmth
     << lo.reuse_connections << '|'
     << (lo.transport_override ? static_cast<int>(*lo.transport_override) : -1)
     << '|' << config.fault_profile.str() << '|' << config.max_page_retries
     << '|' << config.retry_backoff_s << '|' << config.page_timeout_s
     << '|' << util::fnv1a(to_csv(list));
  const std::string substrate = substrate_key(config);
  if (substrate != substrate_key(CampaignConfig{}))
    os << "|sub|" << substrate;
  // Chaos joins the digest only when a schedule is set, so every digest
  // computed before the chaos engine existed — including on-disk
  // checkpoints and the pinned goldens — is reproduced exactly.
  if (config.chaos.enabled()) os << "|chaos|" << config.chaos.str();
  return util::fnv1a(os.str());
}

void validate_shard_count(const std::string& context, std::size_t shards,
                          std::size_t sites) {
  if (shards > sites)
    throw std::invalid_argument(
        context + ": --shards (" + std::to_string(shards) +
        ") exceeds the site count (" + std::to_string(sites) +
        "); shards beyond the site count would be empty");
}

std::uint64_t MeasurementCampaign::checkpoint_digest(
    const HisparList& list) const {
  return campaign_config_digest(context_.config, list);
}

std::vector<SiteObservation> MeasurementCampaign::run(const HisparList& list) {
  const std::size_t shard_count =
      std::max<std::size_t>(1, context_.config.shards);
  const auto shards = shard_indices(list, shard_count);
  std::vector<SiteObservation> observations(list.sets.size());
  // Per-shard telemetry lands in disjoint slots (no synchronization
  // needed beyond the for_each_unit joins) and is merged in shard-id
  // order below, so the merged artifacts are --jobs independent.
  std::vector<obs::ShardTelemetry> shard_telemetry(shard_count);
  // Final breaker states per shard, captured under a chaos schedule for
  // checkpoint blocks (informational — a shard either completed or
  // re-runs from scratch — but re-emitted verbatim on resume so the
  // rewritten file stays byte-identical to an uninterrupted one).
  std::vector<std::vector<net::BreakerSet::Record>> shard_breakers(
      shard_count);
  telemetry_ = obs::RunTelemetry{};
  telemetry_.enabled = context_.config.observability.enabled;

  // Checkpointing: a shard is the unit of isolated simulation state, so
  // it is also the unit of resume — a shard either completed (its
  // observations are on disk and are spliced back in) or re-runs from
  // scratch, which makes a resumed campaign bit-identical to an
  // uninterrupted one.
  std::vector<char> shard_done(shard_count, 0);
  const auto write_shard = [&](std::ostream& out, std::size_t shard) {
    append_checkpoint_shard(out, shard, shards[shard], observations,
                            if_present(shard_telemetry[shard]),
                            if_present(shard_breakers[shard]));
  };
  CheckpointJournal journal("campaign", kCampaignCheckpointTag,
                            context_.config.checkpoint_path);
  if (auto checkpoint = journal.open(
          read_checkpoint, [&] { return checkpoint_digest(list); },
          "campaign (seed/shards/profile/list changed)")) {
    for (std::size_t shard : checkpoint->completed_shards)
      if (shard < shard_count) shard_done[shard] = 1;
    for (const auto& [position, observation] : checkpoint->observations)
      if (position < observations.size())
        observations[position] = observation;
    // Completed shards' telemetry was checkpointed too; restoring it
    // keeps the merged telemetry artifacts bit-identical across
    // kill + resume.
    for (auto& [shard, telemetry] : checkpoint->telemetry)
      if (shard < shard_count) shard_telemetry[shard] = std::move(telemetry);
    for (auto& [shard, records] : checkpoint->breakers)
      if (shard < shard_count) shard_breakers[shard] = std::move(records);
  }
  journal.rewrite([&](std::ostream& out) {
    for (std::size_t shard = 0; shard < shard_count; ++shard)
      if (shard_done[shard]) write_shard(out, shard);
  });

  // Each worker builds its shard's state on its own thread and writes
  // only to that shard's list positions, so no synchronization is needed
  // beyond the joins in for_each_unit (and the journal's append lock).
  for_each_unit(shard_count, context_.config.jobs, [&](std::size_t shard) {
    if (shard_done[shard]) return;
    ShardRun result =
        run_one_shard(shard, list, shards[shard], observations);
    shard_telemetry[shard] = std::move(result.telemetry);
    shard_breakers[shard] = std::move(result.breakers);
    journal.append([&](std::ostream& out) { write_shard(out, shard); });
  });

  if (context_.config.observability.enabled)
    obs::fold_unit_telemetry(telemetry_, shard_units(shard_telemetry),
                             "campaign");
  return observations;
}

MeasurementCampaign::ShardRun MeasurementCampaign::run_one_shard(
    std::size_t shard, const HisparList& list,
    const std::vector<std::size_t>& positions,
    std::vector<SiteObservation>& observations) {
  ShardRun result;
  if (positions.empty()) return result;
  ShardState state(*web_, context_.config, shard,
                   util::Rng(context_.config.seed)
                       .fork(static_cast<std::uint64_t>(shard)));
  run_shard(state, list, positions, observations);
  if (context_.config.observability.enabled) result.telemetry = state.take();
  if (!state.breakers.empty()) result.breakers = state.breakers.records();
  return result;
}

std::vector<obs::TelemetryUnit> shard_units(
    const std::vector<obs::ShardTelemetry>& shards) {
  std::vector<obs::TelemetryUnit> units;
  units.reserve(shards.size());
  for (std::size_t shard = 0; shard < shards.size(); ++shard)
    units.push_back({&shards[shard], "shard." + std::to_string(shard) + "."});
  return units;
}

SiteObservation MeasurementCampaign::measure_site(
    const web::WebSite& site, const std::vector<std::size_t>& internal_pages) {
  SiteObservation observation;
  observation.domain = site.domain();
  observation.bootstrap_rank = site.profile().rank;
  observation.category = site.profile().category;

  std::vector<PageMetrics> loads;
  loads.reserve(static_cast<std::size_t>(context_.config.landing_loads));
  for (int round = 0; round < context_.config.landing_loads; ++round) {
    PageFetch fetch = fetch_page(context_, local_, site, 0, round);
    observation.total_retries += fetch.outcome.attempts - 1;
    observation.outcomes.push_back(fetch.outcome);
    if (fetch.usable) loads.push_back(std::move(fetch.metrics));
  }
  if (loads.empty())
    observation.quarantined = true;
  else
    observation.landing = median_metrics(std::move(loads));

  observation.internals.reserve(internal_pages.size());
  for (std::size_t page : internal_pages) {
    PageFetch fetch = fetch_page(context_, local_, site, page, 0);
    observation.total_retries += fetch.outcome.attempts - 1;
    observation.outcomes.push_back(fetch.outcome);
    if (fetch.usable)
      observation.internals.push_back(std::move(fetch.metrics));
  }
  return observation;
}

obs::RunReport build_run_report(const std::vector<SiteObservation>& sites,
                                const obs::RunTelemetry& telemetry) {
  obs::RunReport report;
  const CampaignSummary summary = summarize_campaign(sites);
  report.sites_total = sites.size();
  report.sites_ok = summary.sites_ok;
  report.sites_degraded = summary.sites_degraded;
  report.sites_quarantined = summary.sites_quarantined;
  report.failed_fetches = summary.failed_fetches;
  report.degraded_fetches = summary.degraded_fetches;
  report.total_retries = summary.total_retries;
  for (const auto& site : sites) {
    report.page_fetches += site.outcomes.size();
    report.internal_pages_measured += site.internals.size();
  }

  // Failures by root cause, in FaultKind order (kNone excluded); the
  // injected column comes from telemetry and stays 0 without it.
  std::array<std::uint64_t, net::kFaultKindCount> failures{};
  for (const auto& site : sites)
    for (const auto& outcome : site.outcomes)
      if (outcome.status == browser::LoadStatus::kFailed)
        ++failures[static_cast<std::size_t>(outcome.failure)];
  // Quarantine root causes: a site is quarantined when every landing
  // load failed, so charge it to the modal failure kind among its
  // landing outcomes (ties to the lower kind — a fixed order keeps the
  // report deterministic).
  std::array<std::uint64_t, net::kFaultKindCount> quarantined_by{};
  for (const auto& site : sites) {
    if (!site.quarantined) continue;
    std::array<std::uint64_t, net::kFaultKindCount> counts{};
    for (const auto& outcome : site.outcomes)
      if (outcome.page_index == 0 &&
          outcome.status == browser::LoadStatus::kFailed)
        ++counts[static_cast<std::size_t>(outcome.failure)];
    std::size_t modal = 0;
    for (std::size_t kind = 1; kind < net::kFaultKindCount; ++kind)
      if (counts[kind] > counts[modal]) modal = kind;
    if (counts[modal] > 0) ++quarantined_by[modal];
  }
  for (int kind = 1; kind < net::kFaultKindCount; ++kind) {
    obs::RunReport::FaultLine line;
    line.kind = std::string(net::to_string(static_cast<net::FaultKind>(kind)));
    line.failed_fetches = failures[static_cast<std::size_t>(kind)];
    line.injected =
        telemetry.metrics.counter_or("faults.injected." + line.kind);
    line.sites_quarantined = quarantined_by[static_cast<std::size_t>(kind)];
    report.faults.push_back(std::move(line));
  }

  report.telemetry = telemetry.enabled;
  if (telemetry.enabled) {
    const obs::MetricsRegistry& m = telemetry.metrics;
    report.dns_queries = m.counter_or("dns.queries");
    report.dns_cache_hits = m.counter_or("dns.cache_hits");
    report.cdn_requests = m.counter_or("cdn.requests");
    report.cdn_edge_hits = m.counter_or("cdn.edge_hits");
    report.cdn_edge_lru_hits = m.counter_or("cdn.edge_lru_hits");
    report.cdn_parent_hits = m.counter_or("cdn.parent_hits");
    report.cdn_origin_fetches = m.counter_or("cdn.origin_fetches");
    report.cdn_lru_evictions = m.counter_or("cdn.lru_evictions");
    report.wait_samples_dropped = m.counter_or("loader.wait_samples_dropped");
    report.trace_spans = telemetry.spans.size();
    report.trace_spans_dropped = telemetry.spans_dropped;

    // One line per shard that ran, reassembled from the prefixed gauges.
    for (const auto& [name, value] : m.gauges()) {
      if (name.rfind("shard.", 0) != 0) continue;
      const auto dot = name.find('.', 6);
      if (dot == std::string::npos || name.substr(dot + 1) != "clock_end_s")
        continue;
      const std::string id = name.substr(6, dot - 6);
      obs::RunReport::ShardLine line;
      line.shard = std::strtoull(id.c_str(), nullptr, 10);
      line.clock_end_s = value;
      line.sites = static_cast<std::uint64_t>(
          std::llround(m.gauge_or("shard." + id + ".sites")));
      line.fetches = static_cast<std::uint64_t>(
          std::llround(m.gauge_or("shard." + id + ".fetches")));
      report.shards.push_back(std::move(line));
    }
    std::sort(report.shards.begin(), report.shards.end(),
              [](const obs::RunReport::ShardLine& a,
                 const obs::RunReport::ShardLine& b) {
                return a.shard < b.shard;
              });
  }
  return report;
}

}  // namespace hispar::core
