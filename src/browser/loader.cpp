#include "browser/loader.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "browser/speedindex.h"
#include "net/handshake.h"
#include "web/mime.h"

namespace hispar::browser {

namespace {

constexpr double kMssBytes = 1460.0;
constexpr double kInitialCwndSegments = 10.0;
constexpr double kWarmCwndSegments = 40.0;

// Failure timing model: a SERVFAIL is a fast negative answer from the
// resolver; a resolver timeout is the classic ~5 s client give-up; a
// failed object attempt is retried after an exponentially growing pause.
constexpr double kDnsServfailMs = 80.0;
constexpr double kDnsTimeoutMs = 5000.0;
constexpr double kObjectRetryBackoffMs = 250.0;
// Retry backoff doubles per attempt but never past this ceiling (and
// the exponent itself is clamped: `1 << attempt` would be undefined
// behaviour once --max-retries pushes attempt >= 31).
constexpr double kMaxObjectBackoffMs = 8000.0;
// Hedged DNS fires the second query once the primary has been out this
// long — the deterministic P95 of the resolver model's uncached path
// (cold lookups walk the hierarchy; warm ones answer in a few ms).
constexpr double kDnsHedgeDelayMs = 250.0;

// Browsing-session model (LoadOptions::session). A browser-cache fresh
// hit is served from local disk/memory: a fixed lookup cost plus a
// size-proportional read, no network at all. A 304-style revalidation
// moves only headers on the wire regardless of body size. Origin
// connection pools survive between the pages of one session for the
// keep-alive window (Apache/nginx-style idle timeout).
constexpr double kCacheReadBaseMs = 0.2;
constexpr double kCacheReadPerByteMs = 2.0e-6;
constexpr double kRevalidateBytes = 512.0;
constexpr double kKeepAliveS = 115.0;

// State the browser keeps per remote host during one page load.
struct HostState {
  bool dns_done = false;
  double rtt_ms = 0.0;
  net::Region server_region = net::Region::kNorthAmerica;
  bool resolved_region = false;
  // Per-connection next-free time (HTTP/1.1); HTTP/2 keeps exactly one
  // entry and multiplexes on it.
  std::vector<double> connection_free;
  bool session_seen = false;  // enables TLS session resumption
};

double transfer_rounds(double bytes, bool warm_connection) {
  const double cwnd = warm_connection ? kWarmCwndSegments : kInitialCwndSegments;
  const double segments = std::max(1.0, bytes / kMssBytes);
  if (segments <= cwnd) return 0.0;
  return std::ceil(std::log2(segments / cwnd + 1.0));
}

}  // namespace

std::string_view to_string(LoadStatus status) {
  switch (status) {
    case LoadStatus::kOk: return "ok";
    case LoadStatus::kDegraded: return "degraded";
    case LoadStatus::kFailed: return "failed";
  }
  return "unknown";
}

// Pooled per-load buffers. Per-host state is a vector indexed by the
// page's dense host ids (WebPage::hosts) instead of a string-keyed map;
// the dependency schedule lives in flat reusable arrays (children in
// CSR layout, the ready queue as an explicit binary heap — the same
// push_heap/pop_heap algorithm std::priority_queue uses, so extraction
// order is identical).
struct PageLoader::Scratch {
  std::vector<HostState> hosts;
  std::vector<char> hint_seen;
  std::vector<double> finish;
  std::vector<double> ready;
  std::vector<std::pair<double, std::size_t>> heap;
  std::vector<std::uint32_t> child_offsets;
  std::vector<std::uint32_t> child_cursor;
  std::vector<std::uint32_t> child_items;
  // Fallback host index for pages without a prebuilt one.
  std::vector<int> local_ids;
  std::unordered_map<std::string_view, int> local_index;
};

std::vector<const HarEntry*> entries_by_object(const web::WebPage& page,
                                               const LoadResult& result,
                                               std::string_view caller) {
  const auto mismatch = [&] {
    return std::invalid_argument(std::string(caller) +
                                 ": load result does not match page");
  };
  if (result.har.entries.size() != page.objects.size()) throw mismatch();
  std::vector<const HarEntry*> by_object(page.objects.size(), nullptr);
  for (const HarEntry& entry : result.har.entries) {
    const std::size_t index = entry.object_index;
    if (index >= by_object.size() || by_object[index] != nullptr ||
        entry.url != page.objects[index].url)
      throw mismatch();
    by_object[index] = &entry;
  }
  return by_object;
}

PageLoader::PageLoader(LoaderEnv env)
    : env_(env), scratch_(std::make_unique<Scratch>()) {
  if (env_.latency == nullptr || env_.registry == nullptr ||
      env_.cdn == nullptr || env_.resolver == nullptr)
    throw std::invalid_argument("PageLoader: incomplete environment");
  if (env_.obs.metrics != nullptr)
    wait_hist_ = &env_.obs.metrics->histogram("loader.object_wait_ms",
                                              obs::time_ms_buckets());
}

PageLoader::~PageLoader() = default;

LoadResult PageLoader::load(const web::WebPage& page, util::Rng rng,
                            const LoadOptions& options) const {
  if (page.objects.empty())
    throw std::invalid_argument("PageLoader: page has no objects");

  // A cold browser profile (§3.1) opens a fresh DoH connection per
  // page: the first lookup of this load pays connection setup again.
  if (env_.doh != nullptr) env_.doh->new_session();

  LoadResult result;
  result.har.page_url = page.url.str();
  result.har.entries.reserve(page.objects.size());

  Scratch& scratch = *scratch_;
  const std::size_t n = page.objects.size();

  // Host ids: generated pages carry a prebuilt index; hand-built pages
  // get a local one (one hash per object, once per load).
  std::size_t host_count = 0;
  const bool indexed = !page.hosts.empty();
  if (indexed) {
    host_count = page.hosts.size();
    for (const auto& o : page.objects)
      if (o.host_id < 0 || static_cast<std::size_t>(o.host_id) >= host_count)
        throw std::logic_error(
            "PageLoader: stale host index (call WebPage::rebuild_host_index)");
  } else {
    scratch.local_index.clear();
    scratch.local_ids.assign(n, 0);
    int next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, inserted] = scratch.local_index.try_emplace(
          std::string_view(page.objects[i].host), next);
      if (inserted) ++next;
      scratch.local_ids[i] = it->second;
    }
    host_count = static_cast<std::size_t>(next);
  }
  const auto id_of = [&](std::size_t index) {
    return indexed ? static_cast<std::size_t>(page.objects[index].host_id)
                   : static_cast<std::size_t>(scratch.local_ids[index]);
  };
  if (scratch.hosts.size() < host_count) scratch.hosts.resize(host_count);
  for (std::size_t i = 0; i < host_count; ++i) {
    HostState& hs = scratch.hosts[i];
    hs.dns_done = false;
    hs.rtt_ms = 0.0;
    hs.server_region = net::Region::kNorthAmerica;
    hs.resolved_region = false;
    hs.connection_free.clear();  // keeps capacity for the next load
    hs.session_seen = false;
  }

  const net::TransportProtocol base_transport =
      options.transport_override.value_or(page.transport);
  // Faults disabled => all failure paths below are dead code and every
  // operation (RNG draws, resolver/CDN calls) matches a fault-free
  // loader exactly. The chaos oracle carries the same contract: null
  // means no branch below consumes extra randomness.
  const bool faulty = options.faults != nullptr;
  const bool chaotic = options.chaos != nullptr;
  // Browsing-session state. Null (the cold profile of §3.1) keeps every
  // session branch below dead and draw-free, so sessions-off loads are
  // bit-identical to loads on a loader without this feature.
  SessionState* const session = options.session;
  // Campaign virtual clock for an in-load offset (chaos windows and
  // breakers live on campaign time, not per-load time).
  const auto clock_s = [&](double in_load_ms) {
    return options.start_time_s + in_load_ms / 1000.0;
  };

  // Object-fetch trace spans ride the virtual clock: the load's start
  // offset plus the object's in-load window, in microseconds.
  const bool tracing = env_.obs.trace != nullptr && env_.obs.trace_objects;
  const auto record_span = [&](const HarEntry& entry, double ready_at,
                               double end_ms) {
    if (!tracing) return;
    obs::TraceSpan span;
    span.name = std::string(entry.host);
    span.cat = "object";
    span.ts_us = obs::to_trace_us(options.start_time_s + ready_at / 1000.0);
    span.dur_us = obs::to_trace_us((end_ms - ready_at) / 1000.0);
    span.tid = env_.obs.tid;
    span.args.emplace_back("url", entry.url);
    if (!entry.error.empty()) span.args.emplace_back("error", entry.error);
    env_.obs.trace->record(std::move(span));
  };

  // Resolve the serving region and RTT for a host, lazily, from the
  // first object fetched from it.
  const auto host_state = [&](std::size_t index) -> HostState& {
    const web::WebObject& o = page.objects[index];
    HostState& hs = scratch.hosts[id_of(index)];
    if (!hs.resolved_region) {
      if (o.via_cdn) {
        const auto& provider = env_.registry->provider(o.cdn_provider_id);
        hs.server_region =
            env_.edge_pin ? *env_.edge_pin
                          : env_.registry->nearest_edge(provider, env_.vantage,
                                                        *env_.latency);
      } else {
        hs.server_region = o.origin_region;
      }
      hs.rtt_ms = env_.latency->rtt(env_.vantage, hs.server_region, rng);
      hs.resolved_region = true;
      if (session != nullptr) {
        // Session carry-over, applied on the first touch of this host:
        // a still-fresh DNS answer from an earlier page skips the
        // lookup (the same mechanism dns-prefetch uses), and an origin
        // used within the keep-alive window starts with one idle
        // connection and a resumable TLS session. No RNG draws — the
        // load's draw order is untouched.
        const auto dns_it = session->dns_expiry_s.find(o.host);
        if (dns_it != session->dns_expiry_s.end() &&
            dns_it->second > options.start_time_s)
          hs.dns_done = true;
        const auto conn_it = session->origin_last_used_s.find(o.host);
        if (conn_it != session->origin_last_used_s.end() &&
            conn_it->second + kKeepAliveS >= options.start_time_s) {
          hs.session_seen = true;
          hs.connection_free.push_back(0.0);
        }
      }
    }
    return hs;
  };

  const auto dns_record_for = [&](const web::WebObject& o) {
    net::DnsRecord record;
    record.domain = o.host;
    record.cdn_request_routing = o.via_cdn;
    // Deterministic per-host TTL in [300, 3600) s; CDN-routed names are
    // capped by the resolver model.
    record.ttl_s = 300.0 + static_cast<double>(util::fnv1a(o.host) % 3300u);
    record.client_query_rate = std::max(1e-6, o.request_rate * 5.0);
    record.authoritative_region = o.origin_region;
    return record;
  };

  // --- resource hints (§5.5) ---
  // dns-prefetch warms DNS for the first N distinct non-root hosts;
  // preconnect additionally establishes a connection at t=0 (off the
  // critical path, but the handshake still happens and is counted).
  if (options.use_resource_hints) {
    int dns_budget = page.hints.dns_prefetch + page.hints.preconnect;
    int conn_budget = page.hints.preconnect;
    scratch.hint_seen.assign(host_count, 0);
    for (std::size_t i = 1; i < page.objects.size() && dns_budget > 0; ++i) {
      const auto& o = page.objects[i];
      if (o.host == page.url.host) continue;
      const std::size_t id = id_of(i);
      if (scratch.hint_seen[id]) continue;
      scratch.hint_seen[id] = 1;
      HostState& hs = host_state(i);
      hs.dns_done = true;  // completed before the object is needed
      --dns_budget;
      if (conn_budget > 0) {
        --conn_budget;
        // Preconnect only helps when the crossorigin mode matches the
        // eventual request; mismatches make the browser open a second
        // connection anyway (a well-documented footgun), so roughly
        // half of the preconnects yield a usable connection.
        if (rng.chance(0.5)) {
          const auto cost = net::handshake_cost(
              o.is_https() ? net::TransportProtocol::kTcpTls13
                           : net::TransportProtocol::kCleartextHttp,
              false);
          const double t = cost.round_trips * hs.rtt_ms + cost.cpu_ms;
          hs.connection_free.push_back(t);
          hs.session_seen = true;
          ++result.handshakes;
          result.handshake_time_ms += t;
        }
      }
    }
  }

  // --- dependency-driven schedule ---
  scratch.finish.assign(n, 0.0);
  scratch.ready.assign(n, 0.0);
  std::vector<double>& finish = scratch.finish;
  std::vector<double>& ready = scratch.ready;
  // Min-heap of (ready_time, index); an object becomes ready when its
  // parent has been fetched and parsed.
  auto& heap = scratch.heap;
  heap.clear();
  const auto heap_push = [&](double at, std::size_t index) {
    heap.emplace_back(at, index);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  // Children in CSR layout: child_items[child_offsets[p] ..
  // child_offsets[p+1]) are p's children in ascending index order.
  scratch.child_offsets.assign(n + 1, 0);
  for (std::size_t i = 1; i < n; ++i) {
    const int parent = page.objects[i].parent_index;
    if (parent < 0 || static_cast<std::size_t>(parent) >= i)
      throw std::logic_error("PageLoader: malformed dependency graph");
    ++scratch.child_offsets[static_cast<std::size_t>(parent) + 1];
  }
  for (std::size_t i = 1; i <= n; ++i)
    scratch.child_offsets[i] += scratch.child_offsets[i - 1];
  scratch.child_cursor.assign(scratch.child_offsets.begin(),
                              scratch.child_offsets.end());
  scratch.child_items.assign(n - 1, 0);
  for (std::size_t i = 1; i < n; ++i) {
    const auto parent = static_cast<std::size_t>(page.objects[i].parent_index);
    scratch.child_items[scratch.child_cursor[parent]++] =
        static_cast<std::uint32_t>(i);
  }
  heap_push(0.0, 0);

  double first_paint_gate = 0.0;  // last render-blocking completion
  // Render-blocking resources also serialize on the browser main
  // thread: stylesheets and synchronous scripts are parsed/executed
  // before first paint, so their *count and bytes* delay rendering even
  // when their downloads overlap perfectly.
  double blocking_main_thread_ms = 0.0;
  std::vector<PaintEvent> paint_events;
  paint_events.reserve(n);  // one allocation, not one per doubling

  // Success tail shared by the network path and the browser-cache fresh
  // hit: render-blocking bookkeeping, paint scheduling, telemetry, and
  // child discovery.
  const auto complete_object = [&](std::size_t index, const web::WebObject& o,
                                   HarEntry& entry, double ready_at, double t) {
    if (o.render_blocking || index == 0) {
      first_paint_gate = std::max(first_paint_gate, t);
      blocking_main_thread_ms +=
          o.mime == web::MimeCategory::kJavaScript
              ? 4.0 + o.size_bytes * 3.0e-4   // parse + execute
              : 2.0 + o.size_bytes * 1.0e-4;  // parse + style calc
    }
    if (web::is_visual(o.mime))
      paint_events.push_back(PaintEvent{t + 16.0, o.size_bytes});

    if (wait_hist_ != nullptr) wait_hist_->observe(entry.timings.wait);
    record_span(entry, ready_at, t);
    result.har.entries.push_back(std::move(entry));

    // Children become ready after this object is parsed.
    for (std::size_t c = scratch.child_offsets[index];
         c < scratch.child_offsets[index + 1]; ++c) {
      const std::size_t child = scratch.child_items[c];
      const double parse_delay = rng.uniform(3.0, 15.0);
      ready[child] = t + parse_delay;
      heap_push(ready[child], child);
    }
  };

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [ready_at, index] = heap.back();
    heap.pop_back();
    const web::WebObject& o = page.objects[index];
    HostState& hs = host_state(index);

    HarEntry entry;
    entry.url = o.url;
    entry.host = o.host;
    entry.scheme = o.scheme;
    entry.mime_type = web::representative_mime_type(o.mime);
    entry.body_size = o.size_bytes;
    entry.cacheable = o.cacheable;
    entry.object_index = static_cast<std::uint32_t>(index);
    entry.started_at_ms = ready_at;
    if (o.dns_cname) entry.dns_cname = *o.dns_cname;

    // Page-level watchdog: fetches that would start after the abort
    // deadline never happen (Firefox kills hung loads at ~60 s). The
    // deadline holds whether or not faults are being injected — a
    // fault-free pathological page must not run unbounded either.
    if (ready_at > options.page_timeout_ms) {
      entry.status = 0;
      entry.error = "page-watchdog-abort";
      entry.body_size = 0.0;
      result.watchdog_abort = true;
      ++result.failed_objects;
      record_span(entry, ready_at, ready_at);
      result.har.entries.push_back(std::move(entry));
      continue;  // children were never discovered
    }

    // Browser-cache consult (session replay only). A fresh hit is
    // served locally: no DNS, no connection, no breaker admission or
    // feedback, and no fault/chaos decision — local reads cannot trip
    // network defenses or consume a fault-injector draw. Stale entries
    // and misses fall through to the network path below.
    CacheOutcome cache_outcome = CacheOutcome::kMiss;
    bool cache_managed = false;
    if (session != nullptr && !o.cache_key.empty()) {
      cache_managed = true;
      cache_outcome = session->cache.lookup(o.cache_key, clock_s(ready_at));
      if (cache_outcome == CacheOutcome::kFresh) {
        const double read_ms =
            kCacheReadBaseMs + o.size_bytes * kCacheReadPerByteMs;
        entry.timings.receive += read_ms;
        const double t_done = ready_at + read_ms;
        finish[index] = t_done;
        ++result.cache_fresh_hits;
        complete_object(index, o, entry, ready_at, t_done);
        continue;
      }
      if (cache_outcome == CacheOutcome::kMiss) ++result.cache_misses;
    }
    const bool revalidate =
        cache_managed && cache_outcome == CacheOutcome::kStale;

    // Circuit breakers: a scope that has been failing consecutively is
    // not worth burning the page budget on. Non-root objects check the
    // origin breaker (and the CDN-provider breaker when CDN-served)
    // before fetching; a denial fails the entry fast, degrading the
    // load instead of quarantining the site. The root document always
    // goes through — without it there is nothing to degrade to.
    if (options.breakers != nullptr && index != 0) {
      const double at_s = clock_s(ready_at);
      const bool origin_ok =
          options.breakers->at("origin:" + o.host).allow(at_s);
      const bool cdn_ok =
          !o.via_cdn ||
          options.breakers->at("cdn:" + std::to_string(o.cdn_provider_id))
              .allow(at_s);
      if (!origin_ok || !cdn_ok) {
        entry.status = 0;
        entry.error = "breaker-open";
        entry.body_size = 0.0;
        ++result.breaker_denials;
        ++result.failed_objects;
        record_span(entry, ready_at, ready_at);
        result.har.entries.push_back(std::move(entry));
        continue;  // children were never discovered
      }
    }

    // Deadline-budget propagation: an object starting near the page
    // deadline gets only the remaining page budget, not the full
    // per-object allowance — stalled transfers can no longer drag one
    // object far past the watchdog line.
    const double object_budget_ms =
        options.deadline_budget
            ? std::min(options.object_timeout_ms,
                       std::max(0.0, options.page_timeout_ms - ready_at))
            : options.object_timeout_ms;

    double t = ready_at;
    net::FaultKind fate = net::FaultKind::kNone;
    bool warm_transfer = false;
    bool used_connection = false;
    const int max_attempts =
        (faulty || chaotic) ? 1 + std::max(0, options.max_object_retries) : 1;

    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      fate = net::FaultKind::kNone;
      used_connection = false;
      std::size_t conn_index = 0;
      warm_transfer = false;

      // DNS. Background faults strike first; an active resolver outage
      // window strikes lookups the base profile spared.
      if (!hs.dns_done) {
        net::FaultKind dns_fate = net::FaultKind::kNone;
        if (faulty) dns_fate = options.faults->dns_fault();
        if (dns_fate == net::FaultKind::kNone && chaotic)
          dns_fate = options.chaos->dns_fault(clock_s(t), o.host);
        if (dns_fate == net::FaultKind::kDnsServfail) {
          entry.timings.dns += kDnsServfailMs;
          t += kDnsServfailMs;
          fate = dns_fate;
        } else if (dns_fate == net::FaultKind::kDnsTimeout) {
          entry.timings.dns += kDnsTimeoutMs;
          t += kDnsTimeoutMs;
          fate = dns_fate;
        }
        if (fate == net::FaultKind::kNone) {
          const double query_time_s = options.start_time_s + t / 1000.0;
          auto lookup =
              env_.doh != nullptr
                  ? env_.doh->resolve(dns_record_for(o), query_time_s, rng)
                  : env_.resolver->resolve(dns_record_for(o), query_time_s,
                                           rng);
          if (options.hedge_dns && lookup.latency_ms > kDnsHedgeDelayMs) {
            // Hedged lookup: a second query goes out once the primary
            // has been out for the P95 delay; the first answer wins.
            // The primary's walk has warmed the resolver by then, so
            // the hedge usually answers fast and caps the tail near
            // kDnsHedgeDelayMs. Both draws come from the load's own
            // keyed stream — deterministic for any --jobs and resume.
            const auto hedged =
                env_.doh != nullptr
                    ? env_.doh->resolve(dns_record_for(o), query_time_s, rng)
                    : env_.resolver->resolve(dns_record_for(o), query_time_s,
                                             rng);
            ++result.dns_hedges;
            const double hedged_ms = kDnsHedgeDelayMs + hedged.latency_ms;
            if (hedged_ms < lookup.latency_ms) {
              lookup.latency_ms = hedged_ms;
              ++result.dns_hedge_wins;
            }
          }
          entry.timings.dns += lookup.latency_ms;
          t += lookup.latency_ms;
          hs.dns_done = true;
          // The OS resolver cache outlives this page: a later page in
          // the same session skips the lookup until the record's TTL
          // runs out. The TTL is a pure hash of the host (see
          // dns_record_for), so no draw happens here.
          if (session != nullptr)
            session->dns_expiry_s[o.host] =
                query_time_s + dns_record_for(o).ttl_s;
          ++result.dns_lookups;
          result.dns_time_ms += lookup.latency_ms;
        }
      }

      // Connection.
      const bool https = o.is_https();
      net::TransportProtocol transport =
          https ? base_transport : net::TransportProtocol::kCleartextHttp;
      if (options.transport_override) transport = *options.transport_override;
      const bool h2 = page.http2 && https;
      const std::size_t cap = options.reuse_connections ? (h2 ? 1u : 6u) : ~0u;

      if (fate == net::FaultKind::kNone) {
        if (!options.reuse_connections || hs.connection_free.empty() ||
            (!h2 && hs.connection_free.size() < cap &&
             *std::min_element(hs.connection_free.begin(),
                               hs.connection_free.end()) > t)) {
          // Open a fresh connection.
          const bool tls_handshake =
              transport != net::TransportProtocol::kCleartextHttp;
          net::FaultKind connect_fate = net::FaultKind::kNone;
          if (faulty) connect_fate = options.faults->connect_fault(tls_handshake);
          if (connect_fate == net::FaultKind::kNone && chaotic)
            connect_fate =
                options.chaos->connect_fault(clock_s(t), o.host, tls_handshake,
                                             o.via_cdn, o.cdn_provider_id);
          if (connect_fate == net::FaultKind::kConnectionReset) {
            // SYN out, RST back: one round trip burned, no connection.
            entry.timings.connect += hs.rtt_ms;
            t += hs.rtt_ms;
            fate = connect_fate;
          } else if (connect_fate == net::FaultKind::kTlsFailure) {
            // TCP connects, the TLS handshake dies one round trip in.
            entry.timings.connect += hs.rtt_ms;
            entry.timings.ssl += hs.rtt_ms;
            t += 2.0 * hs.rtt_ms;
            fate = connect_fate;
          }
          if (fate == net::FaultKind::kNone) {
            const auto cost = net::handshake_cost(transport, hs.session_seen);
            const double hs_time = cost.round_trips * hs.rtt_ms + cost.cpu_ms;
            // Split round trips into TCP (1) and TLS (rest) for the HAR.
            const double connect_ms = std::min(1, cost.round_trips) * hs.rtt_ms;
            entry.timings.connect += connect_ms;
            entry.timings.ssl += hs_time - connect_ms;
            t += hs_time;
            hs.connection_free.push_back(t);
            conn_index = hs.connection_free.size() - 1;
            hs.session_seen = true;
            ++result.handshakes;
            result.handshake_time_ms += hs_time;
            used_connection = true;
          }
        } else {
          // Reuse: pick the earliest-free connection; block if it is busy.
          conn_index = static_cast<std::size_t>(
              std::min_element(hs.connection_free.begin(),
                               hs.connection_free.end()) -
              hs.connection_free.begin());
          if (!h2 && hs.connection_free[conn_index] > t) {
            entry.timings.blocked += hs.connection_free[conn_index] - t;
            t = hs.connection_free[conn_index];
          }
          warm_transfer = true;
          used_connection = true;
        }
      }

      if (fate == net::FaultKind::kNone) {
        // Send: the request travels to the server (half a round trip).
        entry.timings.send += 0.5 * hs.rtt_ms;
        t += 0.5 * hs.rtt_ms;

        if (faulty) fate = options.faults->response_fault();
        if (fate == net::FaultKind::kNone && chaotic)
          fate = options.chaos->response_fault(clock_s(t), o.host, o.via_cdn,
                                               o.cdn_provider_id);
        if (fate == net::FaultKind::kHttp5xx) {
          // The request reached the server; an error page came straight
          // back after origin think time, with no usable body. The
          // cache hierarchy never admits it.
          const double error_wait = 0.5 * hs.rtt_ms + o.origin_think_ms;
          entry.timings.wait += error_wait;
          t += error_wait;
          if (!h2 && used_connection) hs.connection_free[conn_index] = t;
        } else {
          // Server wait (CDN hierarchy or origin) + response propagation.
          cdn::CdnRequest request;
          request.url = o.url;
          request.size_bytes = o.size_bytes;
          request.request_rate = options.model_cdn_warmth ? o.request_rate : 0.0;
          request.cacheable = o.cacheable;
          request.client = env_.vantage;
          request.origin = o.origin_region;
          cdn::CdnResponse response;
          if (o.via_cdn) {
            response = env_.cdn->serve(env_.registry->provider(o.cdn_provider_id),
                                       request, rng);
            const auto& provider = env_.registry->provider(o.cdn_provider_id);
            entry.response_headers.cdn_signature = provider.header_signature;
            if (!response.x_cache.empty()) {
              if (response.x_cache == "HIT") {
                entry.response_headers.x_cache = XCache::kHit;
                ++result.x_cache_hits;
              } else {
                entry.response_headers.x_cache = XCache::kMiss;
                ++result.x_cache_misses;
              }
            }
          } else {
            request.origin = o.origin_region;
            response = env_.cdn->serve_from_origin(request, rng);
            response.wait_ms = o.origin_think_ms +
                               0.3 * env_.latency->rtt(o.origin_region,
                                                       o.origin_region, rng);
          }
          // Wait: server think time plus the response's return leg.
          entry.timings.wait += 0.5 * hs.rtt_ms + response.wait_ms;
          t += 0.5 * hs.rtt_ms + response.wait_ms;

          // Receive: slow-start rounds + serialization — unless the
          // transfer stalls out or the connection dies mid-body.
          net::FaultKind transfer_fate =
              faulty ? options.faults->transfer_fault() : net::FaultKind::kNone;
          bool chaos_transfer = false;
          if (transfer_fate == net::FaultKind::kNone && chaotic) {
            transfer_fate = options.chaos->transfer_fault(
                clock_s(t), o.host, o.via_cdn, o.cdn_provider_id);
            chaos_transfer = transfer_fate != net::FaultKind::kNone;
          }
          if (transfer_fate == net::FaultKind::kStalledTransfer) {
            // The body hangs; the browser abandons the object once its
            // fetch budget is burned.
            const double give_up =
                std::max(0.0, object_budget_ms - (t - ready_at));
            entry.timings.receive += give_up;
            entry.body_size = 0.0;
            t += give_up;
            fate = transfer_fate;
          } else if (transfer_fate == net::FaultKind::kTruncatedTransfer) {
            // A chaos-struck truncation has no FaultInjector to draw
            // the surviving fraction from; the load's own stream is
            // just as deterministic.
            const double fraction = chaos_transfer
                                        ? rng.uniform(0.05, 0.95)
                                        : options.faults->truncated_fraction();
            const double bytes = o.size_bytes * fraction;
            const double rounds = transfer_rounds(bytes, warm_transfer);
            const double receive_ms =
                rounds * hs.rtt_ms * 0.8 + env_.latency->transfer_ms(bytes);
            entry.timings.receive += receive_ms;
            entry.body_size = bytes;  // the partial body did arrive
            t += receive_ms;
            fate = transfer_fate;
          } else {
            // A revalidation answered 304: only headers crossed the
            // wire; the body the renderer gets (entry.body_size) is the
            // cached one.
            const double wire_bytes =
                revalidate ? kRevalidateBytes : o.size_bytes;
            const double rounds = transfer_rounds(wire_bytes, warm_transfer);
            const double receive_ms = rounds * hs.rtt_ms * 0.8 +
                                      env_.latency->transfer_ms(wire_bytes);
            entry.timings.receive += receive_ms;
            t += receive_ms;
          }
          if (!h2 && used_connection) hs.connection_free[conn_index] = t;
        }
      }

      if (fate == net::FaultKind::kNone) break;  // attempt succeeded

      // Failed attempt: bounded retry with exponential backoff, unless
      // the object's fetch budget is already burned. exp2 on a clamped
      // double replaces the old `1 << attempt`, whose shift is
      // undefined behaviour once --max-retries pushes attempt >= 31;
      // the ceiling bounds the pause either way.
      if (attempt + 1 < max_attempts && (t - ready_at) < object_budget_ms) {
        const double backoff =
            std::min(kMaxObjectBackoffMs,
                     kObjectRetryBackoffMs *
                         std::exp2(static_cast<double>(std::min(attempt, 62))));
        entry.timings.blocked += backoff;
        t += backoff;
        ++result.object_retries;
        continue;
      }
      break;  // out of retries or budget: the object failed for good
    }

    finish[index] = t;

    // Breaker feedback: the final verdict of this object (after its
    // retries) teaches the scope's breakers. Root objects bypass the
    // admission gate above but still report — an origin that cannot
    // even serve its document should trip fast.
    if (options.breakers != nullptr) {
      const double at_s = clock_s(t);
      net::CircuitBreaker& origin_breaker =
          options.breakers->at("origin:" + o.host);
      if (fate != net::FaultKind::kNone)
        origin_breaker.record_failure(at_s);
      else
        origin_breaker.record_success(at_s);
      if (o.via_cdn) {
        net::CircuitBreaker& cdn_breaker =
            options.breakers->at("cdn:" + std::to_string(o.cdn_provider_id));
        if (fate != net::FaultKind::kNone)
          cdn_breaker.record_failure(at_s);
        else
          cdn_breaker.record_success(at_s);
      }
    }

    if (fate != net::FaultKind::kNone) {
      entry.status = fate == net::FaultKind::kHttp5xx ? 503 : 0;
      entry.error = net::to_string(fate);
      if (fate != net::FaultKind::kTruncatedTransfer) entry.body_size = 0.0;
      ++result.failed_objects;
      if (index == 0) {
        // The root document never arrived: the navigation failed and
        // nothing below it exists. Return the partial (one-entry) HAR.
        result.status = LoadStatus::kFailed;
        result.root_failure = fate;
        record_span(entry, ready_at, t);
        result.har.entries.push_back(std::move(entry));
        result.on_load_ms = t;
        result.har.nav.on_load_ms = t;
        return result;
      }
      record_span(entry, ready_at, t);
      result.har.entries.push_back(std::move(entry));
      continue;  // children were never discovered
    }

    if (session != nullptr) {
      // The fetch ended cleanly: renew the stale entry (the 304 path)
      // or admit the freshly fetched body, and stamp the origin's
      // keep-alive clock so the session's next page can start with a
      // warm connection.
      if (cache_managed) {
        if (revalidate) {
          session->cache.revalidated(o.cache_key, clock_s(t),
                                     o.freshness_lifetime_s);
          ++result.cache_revalidations;
        } else {
          session->cache.insert(o.cache_key,
                                static_cast<std::size_t>(o.size_bytes),
                                clock_s(t), o.freshness_lifetime_s);
        }
      }
      if (used_connection) {
        double& last_used_s = session->origin_last_used_s[o.host];
        last_used_s = std::max(last_used_s, clock_s(t));
      }
    }

    complete_object(index, o, entry, ready_at, t);
  }

  if (result.failed_objects > 0 || result.watchdog_abort)
    result.status = LoadStatus::kDegraded;

  result.on_load_ms = *std::max_element(finish.begin(), finish.end());
  result.plt_ms =
      first_paint_gate + blocking_main_thread_ms + rng.uniform(10.0, 40.0);
  result.speed_index_ms =
      speed_index_ms(std::move(paint_events), result.plt_ms);
  result.har.nav.first_paint_ms = result.plt_ms;
  result.har.nav.on_load_ms = result.on_load_ms;
  return result;
}

}  // namespace hispar::browser
