#include "cdn/hierarchy.h"

#include <cmath>

namespace hispar::cdn {

std::string_view to_string(CacheLevel level) {
  switch (level) {
    case CacheLevel::kEdge: return "edge";
    case CacheLevel::kParent: return "parent";
    case CacheLevel::kOrigin: return "origin";
  }
  return "unknown";
}

CdnHierarchy::CdnHierarchy(const CdnRegistry& registry,
                           const net::LatencyModel& latency,
                           CdnHierarchyConfig config)
    : registry_(&registry), latency_(&latency), config_(config) {}

namespace {
double jittered(double median_ms, double sigma, hispar::util::Rng& rng) {
  return rng.lognormal(std::log(median_ms), sigma);
}

double warmth(double request_rate, double tc, double exponent) {
  const double s = std::max(0.0, request_rate) * tc;
  if (s <= 0.0) return 0.0;
  const double sg = std::pow(s, exponent);
  return sg / (1.0 + sg);
}
}  // namespace

double CdnHierarchy::edge_warm_probability(double request_rate) const {
  return warmth(request_rate, config_.edge_tc_s, config_.warmth_exponent);
}

double CdnHierarchy::parent_warm_probability(double request_rate) const {
  return warmth(request_rate, config_.parent_tc_s, config_.warmth_exponent);
}

CdnResponse CdnHierarchy::serve(const CdnProvider& provider,
                                const CdnRequest& request, util::Rng& rng) {
  ++requests_;
  const net::Region edge =
      config_.edge_pin
          ? *config_.edge_pin
          : registry_->nearest_edge(provider, request.client, *latency_);

  CdnResponse response;
  response.edge_region = edge;

  if (!request.cacheable) {
    // Proxied straight through to the origin over persistent connections.
    response.served_from = CacheLevel::kOrigin;
    response.wait_ms =
        jittered(config_.edge_processing_ms, config_.processing_sigma, rng) +
        latency_->rtt(edge, request.origin, rng) +
        jittered(config_.origin_processing_ms, config_.processing_sigma, rng);
    if (provider.emits_x_cache) response.x_cache = "MISS";
    count(CacheLevel::kOrigin, false, response.wait_ms);
    return response;
  }

  const std::uint32_t lru_key =
      static_cast<std::uint32_t>(provider.id) *
          static_cast<std::uint32_t>(net::kRegionCount) +
      static_cast<std::uint32_t>(edge);
  auto [it, inserted] = edge_lrus_.try_emplace(lru_key, config_.edge_lru_bytes);
  LruCache& lru = it->second;

  // Hit or miss, the edge ends up holding the object at the front of its
  // LRU (a miss admits it on the way back from the parent/origin), so
  // one insert() both reports and refreshes this run's own warmth.
  const bool warm_from_own_traffic =
      lru.insert(request.url, static_cast<std::size_t>(request.size_bytes));
  const bool warm_from_world = rng.chance(edge_warm_probability(
      request.request_rate));

  if (warm_from_own_traffic || warm_from_world) {
    ++edge_hits_;
    response.served_from = CacheLevel::kEdge;
    response.wait_ms =
        jittered(config_.edge_processing_ms, config_.processing_sigma, rng);
    if (provider.emits_x_cache) response.x_cache = "HIT";
    count(CacheLevel::kEdge, warm_from_own_traffic, response.wait_ms);
    return response;
  }

  // Edge miss: consult the parent tier. Parent caches are typically in
  // the same region as the edge (or one hop away); we charge one
  // intra-region RTT.
  const double edge_parent_rtt = latency_->rtt(edge, edge, rng);
  if (rng.chance(parent_warm_probability(request.request_rate))) {
    response.served_from = CacheLevel::kParent;
    response.wait_ms =
        jittered(config_.edge_processing_ms, config_.processing_sigma, rng) +
        edge_parent_rtt +
        jittered(config_.parent_processing_ms, config_.processing_sigma, rng);
    if (provider.emits_x_cache) response.x_cache = "MISS";
    count(CacheLevel::kParent, false, response.wait_ms);
    return response;
  }

  // Parent miss: fetch from the origin over the backhaul.
  response.served_from = CacheLevel::kOrigin;
  response.wait_ms =
      jittered(config_.edge_processing_ms, config_.processing_sigma, rng) +
      edge_parent_rtt +
      jittered(config_.parent_processing_ms, config_.processing_sigma, rng) +
      latency_->rtt(edge, request.origin, rng) +
      jittered(config_.origin_processing_ms, config_.processing_sigma, rng);
  if (provider.emits_x_cache) response.x_cache = "MISS";
  count(CacheLevel::kOrigin, false, response.wait_ms);
  return response;
}

CdnResponse CdnHierarchy::serve_from_origin(const CdnRequest& request,
                                            util::Rng& rng) {
  ++requests_;
  CdnResponse response;
  response.served_from = CacheLevel::kOrigin;
  response.edge_region = request.origin;
  // The client talks to the origin directly; propagation is accounted by
  // the page-load scheduler (client<->server path), so wait here is just
  // server think time.
  response.wait_ms =
      jittered(config_.origin_processing_ms, config_.processing_sigma, rng) +
      0.5 * latency_->rtt(request.origin, request.origin, rng);
  count(CacheLevel::kOrigin, false, response.wait_ms);
  return response;
}

void CdnHierarchy::count(CacheLevel level, bool lru_hit, double wait_ms) {
  switch (level) {
    case CacheLevel::kEdge:
      if (lru_hit) ++edge_lru_hits_;
      break;
    case CacheLevel::kParent:
      ++parent_hits_;
      break;
    case CacheLevel::kOrigin:
      ++origin_fetches_;
      break;
  }
  if (metric_requests_ == nullptr) return;
  ++*metric_requests_;
  switch (level) {
    case CacheLevel::kEdge:
      ++*metric_edge_hits_;
      if (lru_hit) ++*metric_edge_lru_hits_;
      break;
    case CacheLevel::kParent:
      ++*metric_parent_hits_;
      break;
    case CacheLevel::kOrigin:
      ++*metric_origin_fetches_;
      break;
  }
  metric_wait_ms_->observe(wait_ms);
}

std::uint64_t CdnHierarchy::lru_evictions() const {
  std::uint64_t total = 0;
  for (const auto& [key, lru] : edge_lrus_) total += lru.evictions();
  return total;
}

void CdnHierarchy::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metric_requests_ = nullptr;
    metric_edge_hits_ = nullptr;
    metric_edge_lru_hits_ = nullptr;
    metric_parent_hits_ = nullptr;
    metric_origin_fetches_ = nullptr;
    metric_wait_ms_ = nullptr;
    return;
  }
  metric_requests_ = &metrics->counter("cdn.requests");
  metric_edge_hits_ = &metrics->counter("cdn.edge_hits");
  metric_edge_lru_hits_ = &metrics->counter("cdn.edge_lru_hits");
  metric_parent_hits_ = &metrics->counter("cdn.parent_hits");
  metric_origin_fetches_ = &metrics->counter("cdn.origin_fetches");
  metric_wait_ms_ = &metrics->histogram("cdn.wait_ms", obs::time_ms_buckets());
}

void CdnHierarchy::reset_stats() {
  requests_ = 0;
  edge_hits_ = 0;
  edge_lru_hits_ = 0;
  parent_hits_ = 0;
  origin_fetches_ = 0;
}

}  // namespace hispar::cdn
