// The page-load simulator ("the browser").
//
// Replaces the paper's automated Firefox 74 (§3.1). Given a WebPage and
// the network substrate, it schedules every object fetch through DNS,
// the per-origin connection pool, the CDN hierarchy and a
// slow-start-aware transfer model, and emits:
//  * a HAR log with the seven per-entry phases the paper analyzes
//    (blocked, dns, connect, ssl, send, wait, receive — §5.6),
//  * Navigation Timing (navigationStart -> firstPaint = the paper's PLT
//    definition, §4),
//  * SpeedIndex (§4),
//  * handshake counts/times (§5.6).
//
// Loads are cold-cache (§3.1: "fetched each page with an empty cache and
// new user profile"); the shared DNS resolver and CDN state persist
// across loads, as in the real world.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "browser/har.h"
#include "browser/http_cache.h"
#include "cdn/hierarchy.h"
#include "net/connection.h"
#include "net/dns.h"
#include "net/doh.h"
#include "net/faults.h"
#include "net/outage.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "web/page.h"

namespace hispar::browser {

struct LoaderEnv {
  const net::LatencyModel* latency = nullptr;
  const cdn::CdnRegistry* registry = nullptr;
  cdn::CdnHierarchy* cdn = nullptr;
  net::CachingResolver* resolver = nullptr;
  net::Region vantage = net::Region::kNorthAmerica;
  // Shard-local telemetry sinks; default (all-null) disables
  // instrumentation at the cost of one pointer test per site.
  // Observability never draws from `rng` and never moves `t`, so a
  // load's simulated results are identical with or without it.
  obs::ShardObs obs{};
  // DNS-over-HTTPS wrapper around `resolver`. When set, every lookup
  // routes through it (paying the DoH connection/query overheads) and
  // each load opens a fresh DoH session — the cold-profile browser of
  // §3.1 does not reuse the previous page's DoH connection. Null keeps
  // plain resolver lookups (historical behaviour).
  net::DohResolver* doh = nullptr;
  // Pin CDN-served objects to one edge region regardless of proximity.
  // Must agree with the CdnHierarchy's own edge_pin so the RTT the
  // client pays and the cache the request lands in describe the same
  // PoP; MeasurementCampaign wires both from one config field.
  std::optional<net::Region> edge_pin;
};

struct LoadOptions {
  // Simulated wall-clock start of this load (seconds); advances DNS TTL
  // expiry across a measurement campaign.
  double start_time_s = 0.0;
  // Ablation switches (bench_ablation): each disables one mechanism the
  // landing/internal PLT gap is built from.
  bool use_resource_hints = true;
  bool model_cdn_warmth = true;
  bool reuse_connections = true;
  std::optional<net::TransportProtocol> transport_override;
  // Fault injection. Null models the perfectly reliable substrate: all
  // retry/timeout/watchdog machinery below is inert, so fault-free loads
  // are bit-identical to loads on a loader without this feature. The
  // injector is mutated (its stream advances per decision); the caller
  // provides one per load attempt, keyed as net/faults.h documents.
  net::FaultInjector* faults = nullptr;
  // Correlated-outage oracle (net/outage.h). Null models a substrate
  // with no incident windows; like `faults`, the null case is a true
  // no-op — no branch consumes extra randomness — so chaos-free loads
  // are bit-identical to loads on a loader without this feature. The
  // caller provides one injector per load attempt, keyed like `faults`.
  net::ChaosInjector* chaos = nullptr;
  // Defense layer (inert when null/false; campaigns enable it together
  // with chaos so defended and historical fault-only runs never mix):
  //  * breakers: per-shard circuit breakers consulted before every
  //    non-root object fetch ("origin:<host>" and, for CDN-served
  //    objects, "cdn:<provider>"); a denied fetch fails fast with a
  //    "breaker-open" HAR entry and degrades the load instead of
  //    burning its budget against a known-bad scope.
  //  * hedge_dns: fire a second resolver query at a deterministic P95
  //    delay when the primary lookup runs long; first answer wins.
  //  * deadline_budget: propagate the page watchdog budget into each
  //    object's fetch budget (an object starting near the deadline gets
  //    only the remaining time, not the full object_timeout_ms).
  net::BreakerSet* breakers = nullptr;
  bool hedge_dns = false;
  bool deadline_budget = false;
  // Browsing-session client state (http_cache.h): the private HTTP
  // cache, warm DNS answers and per-origin keep-alive a session threads
  // across its page loads. Null models the paper's cold profile (§3.1)
  // and is a true no-op — no branch draws randomness or moves `t` — so
  // sessions-off loads are bit-identical to loads on a loader without
  // this feature. The pointee is mutated (entries admitted/renewed,
  // expiries recorded); the caller owns it across the session's pages.
  SessionState* session = nullptr;
  // Per-object bounded retry with exponential backoff (browsers retry
  // transient network errors a couple of times before surfacing them).
  int max_object_retries = 2;
  // Per-object fetch budget: once an object has burned this long across
  // attempts, the browser gives up on it.
  double object_timeout_ms = 15000.0;
  // Page-level watchdog (Firefox-style load abort): object fetches that
  // would start after this deadline never happen.
  double page_timeout_ms = 60000.0;
};

// How a page load ended.
//  kOk       — every object fetched cleanly;
//  kDegraded — the page painted but some objects failed or the watchdog
//              cut the load short (the HAR is partial);
//  kFailed   — the root document never arrived; nothing was measured.
enum class LoadStatus : std::uint8_t { kOk, kDegraded, kFailed };

std::string_view to_string(LoadStatus status);

// What one load produced. The HAR borrows (see HarEntry): its entries
// view strings owned by the loaded WebPage and by the env's CdnRegistry.
// A LoadResult must not outlive either of them, nor, for a page served
// by web::PageCache, the next PageCache::get() for that page's slot
// (which may replace the page in place). Loading a temporary page —
// `loader.load(site.page(i), rng)` — leaves a result whose HAR dangles.
struct LoadResult {
  HarLog har;
  double plt_ms = 0.0;  // navigationStart -> firstPaint (paper's PLT)
  double on_load_ms = 0.0;
  double speed_index_ms = 0.0;
  int handshakes = 0;
  double handshake_time_ms = 0.0;
  int dns_lookups = 0;
  double dns_time_ms = 0.0;
  int x_cache_hits = 0;
  int x_cache_misses = 0;
  // Failure accounting (all defaults describe a clean load on a
  // reliable substrate).
  LoadStatus status = LoadStatus::kOk;
  net::FaultKind root_failure = net::FaultKind::kNone;  // cause when kFailed
  int failed_objects = 0;   // entries that never completed
  int object_retries = 0;   // in-load re-attempts that were needed
  bool watchdog_abort = false;
  // Defense-layer accounting (all zero unless LoadOptions enables the
  // corresponding defense).
  int breaker_denials = 0;  // fetches an open breaker failed fast
  int dns_hedges = 0;       // hedged lookups fired
  int dns_hedge_wins = 0;   // hedges that beat the primary answer
  // Browser-cache accounting (all zero unless LoadOptions.session is
  // set). Fresh hits were served locally with no network activity;
  // revalidations moved only headers (304-style); misses fetched and
  // then admitted the body.
  int cache_fresh_hits = 0;
  int cache_revalidations = 0;
  int cache_misses = 0;
};

// The HAR entry of each page object, indexed like `page.objects` (a HAR
// lists entries in completion order), joined by HarEntry::object_index.
// Throws std::invalid_argument naming `caller` unless `result` came from
// loading exactly `page`: one entry per object, each at its object's
// URL. Objects that share a URL keep their own entries.
std::vector<const HarEntry*> entries_by_object(const web::WebPage& page,
                                               const LoadResult& result,
                                               std::string_view caller);

class PageLoader {
 public:
  explicit PageLoader(LoaderEnv env);
  ~PageLoader();
  PageLoader(const PageLoader&) = delete;
  PageLoader& operator=(const PageLoader&) = delete;

  // `rng` is taken by value: a load consumes randomness; repeat loads of
  // the same page should pass freshly forked streams. A load's simulated
  // result never depends on previous loads through this object — all
  // simulation state lives behind the env's cdn/resolver pointers — but
  // load() reuses internal scratch buffers across calls, so one
  // PageLoader must not run two loads concurrently. Owners already keep
  // one loader per worker (see LoaderEnv).
  LoadResult load(const web::WebPage& page, util::Rng rng,
                  const LoadOptions& options = {}) const;

 private:
  LoaderEnv env_;
  // Resolved once at construction; null when observability is off.
  obs::Histogram* wait_hist_ = nullptr;
  // Per-load schedule/host buffers, pooled across loads (a campaign is
  // tens of thousands of loads; reallocating them per load showed up in
  // profiles). Mutable because reuse is invisible in load()'s results.
  struct Scratch;
  mutable std::unique_ptr<Scratch> scratch_;
};

}  // namespace hispar::browser
