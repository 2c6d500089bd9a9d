// CDN cache hierarchy (edge -> parent -> origin).
//
// §5.1 and §5.6 rest on two CDN behaviours:
//  * popular objects (disproportionately those on landing pages) are more
//    likely to be warm at the edge — the paper measures 16% more X-Cache
//    hits for landing-page objects;
//  * a miss travels up the hierarchy ("back-office traffic"), and because
//    inter-cache and cache-origin connections are persistent, the extra
//    cost appears as server `wait` time, which the paper finds is 20%
//    higher for internal-page objects (Fig. 7).
//
// Each provider edge (per region) combines:
//  * a deterministic LRU for objects this simulation itself requested
//    recently (temporal locality within a measurement run), and
//  * a heterogeneous-PoP generalization of Che's characteristic-time
//    approximation for the steady-state warmth contributed by the rest
//    of the Internet's traffic. A single Che cache gives
//    P[warm] = 1 - exp(-r * T_c), which is nearly a step function of the
//    request rate r; a provider's edge in a region is really many PoPs
//    and cache tiers with characteristic times spread over decades, so
//    the aggregate hit probability varies smoothly with log r. We use
//    P[warm] = s^g / (1 + s^g) with s = r * T_c and g < 1, which equals
//    1/2 at r = 1/T_c like Che's model but transitions over ~1/g decades.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "cdn/lru_cache.h"
#include "cdn/provider.h"
#include "net/latency.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace hispar::cdn {

enum class CacheLevel : std::uint8_t { kEdge, kParent, kOrigin };

std::string_view to_string(CacheLevel level);

// Requests and responses borrow their text: `url` views the caller's
// string (the page object's URL on the loader path), and `x_cache`
// views a static literal.
struct CdnRequest {
  std::string_view url;          // cache key
  double size_bytes = 0.0;
  // Steady-state requests/second this object receives globally; derived
  // from site traffic and object popularity by the web model.
  double request_rate = 0.01;
  bool cacheable = true;
  net::Region client = net::Region::kNorthAmerica;
  net::Region origin = net::Region::kNorthAmerica;
};

struct CdnResponse {
  CacheLevel served_from = CacheLevel::kEdge;
  // Server-side time until first response byte, excluding the
  // client<->edge network path (maps to the HAR `wait` phase).
  double wait_ms = 0.0;
  // "HIT"/"MISS" when the provider emits X-Cache; empty otherwise.
  std::string_view x_cache;
  net::Region edge_region = net::Region::kNorthAmerica;
};

struct CdnHierarchyConfig {
  // Characteristic times (seconds): an object requested at rate r is
  // warm with probability s^g/(1+s^g), s = r * tc. Parent caches
  // aggregate many edges and thus behave like much larger caches.
  double edge_tc_s = 3600.0;
  double parent_tc_s = 20000.0;
  // Smoothness exponent g of the heterogeneous warmth curve.
  double warmth_exponent = 0.12;
  // Per-tier processing (lognormal medians, ms; sigma below). Spread
  // over PoPs/load levels — this smooths the wait-time CDF (Fig. 7).
  double edge_processing_ms = 8.0;
  double parent_processing_ms = 16.0;
  double origin_processing_ms = 35.0;
  double processing_sigma = 0.75;
  // Deterministic per-edge LRU capacity for this simulation's own
  // requests.
  std::size_t edge_lru_bytes = 256ull * 1024 * 1024;
  // Pin every cacheable request to this edge region instead of routing
  // to the nearest one — models anycast mis-routing and vantage
  // profiles whose traffic lands on a fixed PoP. nullopt keeps
  // nearest-edge routing (historical behaviour).
  std::optional<net::Region> edge_pin;
};

class CdnHierarchy {
 public:
  CdnHierarchy(const CdnRegistry& registry, const net::LatencyModel& latency,
               CdnHierarchyConfig config = {});

  // Serve `request` through `provider`. Non-cacheable requests always go
  // to the origin (the CDN proxies them).
  CdnResponse serve(const CdnProvider& provider, const CdnRequest& request,
                    util::Rng& rng);

  // Direct-to-origin service (site not using a CDN for this object).
  CdnResponse serve_from_origin(const CdnRequest& request, util::Rng& rng);

  double edge_warm_probability(double request_rate) const;
  double parent_warm_probability(double request_rate) const;

  std::uint64_t requests() const { return requests_; }
  std::uint64_t edge_hits() const { return edge_hits_; }
  // Where the back-office traffic went (§5.6): edge hits served by this
  // run's own deterministic LRU layer vs. the rest of the hierarchy.
  std::uint64_t edge_lru_hits() const { return edge_lru_hits_; }
  std::uint64_t parent_hits() const { return parent_hits_; }
  std::uint64_t origin_fetches() const { return origin_fetches_; }
  // Total LRU evictions across every (provider, region) edge — summed
  // on demand; cache-pressure evidence for the run report.
  std::uint64_t lru_evictions() const;
  void reset_stats();

  // Observability hook: pre-resolves counter/histogram handles into
  // `metrics` (`cdn.requests`, per-level hit counters, `cdn.wait_ms`);
  // serve paths update them behind one null check. Pass nullptr to
  // detach.
  void set_metrics(obs::MetricsRegistry* metrics);

  const CdnHierarchyConfig& config() const { return config_; }

 private:
  void count(CacheLevel level, bool lru_hit, double wait_ms);

  const CdnRegistry* registry_;
  const net::LatencyModel* latency_;
  CdnHierarchyConfig config_;
  // LRU per (provider, edge region), keyed by the provider's dense id
  // times the region count plus the edge region — an integer key on a
  // hot path that used to build a `name + "|" + region` string per
  // cacheable request. Stats over this map (lru_evictions) are sums,
  // so iteration order is irrelevant.
  std::unordered_map<std::uint32_t, LruCache> edge_lrus_;
  std::uint64_t requests_ = 0;
  std::uint64_t edge_hits_ = 0;
  std::uint64_t edge_lru_hits_ = 0;
  std::uint64_t parent_hits_ = 0;
  std::uint64_t origin_fetches_ = 0;
  // Pre-resolved metric handles (see set_metrics); null when detached.
  std::uint64_t* metric_requests_ = nullptr;
  std::uint64_t* metric_edge_hits_ = nullptr;
  std::uint64_t* metric_edge_lru_hits_ = nullptr;
  std::uint64_t* metric_parent_hits_ = nullptr;
  std::uint64_t* metric_origin_fetches_ = nullptr;
  obs::Histogram* metric_wait_ms_ = nullptr;
};

}  // namespace hispar::cdn
