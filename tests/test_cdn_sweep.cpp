// Statistical sweep of the CDN warmth model: observed hit fractions
// must track the analytic warm probability across the rate spectrum.
#include <gtest/gtest.h>

#include <cmath>

#include "cdn/hierarchy.h"

namespace {

using namespace hispar::cdn;
using hispar::net::LatencyModel;
using hispar::util::Rng;

class WarmthSweep : public ::testing::TestWithParam<double> {};

TEST_P(WarmthSweep, ObservedHitRateMatchesModel) {
  const double rate = GetParam();
  const auto registry = CdnRegistry::standard();
  const LatencyModel latency;
  CdnHierarchy cdn(registry, latency);
  Rng rng(101);
  const auto& provider = *registry.find_by_name("fastly");

  constexpr int kTrials = 4000;
  int hits = 0;
  for (int i = 0; i < kTrials; ++i) {
    const std::string url = "https://x/" + std::to_string(i);  // no LRU help
    CdnRequest request;
    request.url = url;  // a view: `url` outlives the serve() call
    request.size_bytes = 10e3;
    request.request_rate = rate;
    const auto response = cdn.serve(provider, request, rng);
    hits += response.served_from == CacheLevel::kEdge;
  }
  const double expected = cdn.edge_warm_probability(rate);
  const double observed = static_cast<double>(hits) / kTrials;
  // Binomial 4-sigma band.
  const double sigma =
      std::sqrt(std::max(expected * (1 - expected), 1e-4) / kTrials);
  EXPECT_NEAR(observed, expected, 4 * sigma + 0.01) << "rate " << rate;
}

TEST_P(WarmthSweep, WaitGrowsAsRateFalls) {
  const double rate = GetParam();
  const auto registry = CdnRegistry::standard();
  const LatencyModel latency;
  CdnHierarchy cdn(registry, latency);
  Rng rng(7);
  const auto& provider = *registry.find_by_name("akamai");

  const auto mean_wait = [&](double r) {
    double total = 0.0;
    for (int i = 0; i < 2000; ++i) {
      const std::string url =
          "https://y/" + std::to_string(i) + "/" + std::to_string(r);
      CdnRequest request;
      request.url = url;
      request.size_bytes = 10e3;
      request.request_rate = r;
      total += cdn.serve(provider, request, rng).wait_ms;
    }
    return total / 2000.0;
  };
  EXPECT_LT(mean_wait(rate * 100.0), mean_wait(rate / 100.0));
}

INSTANTIATE_TEST_SUITE_P(Rates, WarmthSweep,
                         ::testing::Values(1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
                                           1.0, 10.0));

TEST(WarmthShape, SigmoidProperties) {
  const auto registry = CdnRegistry::standard();
  const LatencyModel latency;
  CdnHierarchy cdn(registry, latency);
  // P = 1/2 exactly at rate = 1/tc (the Che-consistency point).
  const double half_rate = 1.0 / cdn.config().edge_tc_s;
  EXPECT_NEAR(cdn.edge_warm_probability(half_rate), 0.5, 1e-9);
  // Smooth transition: one decade of rate moves P by far less than a
  // step function would.
  const double p_lo = cdn.edge_warm_probability(half_rate / 10.0);
  const double p_hi = cdn.edge_warm_probability(half_rate * 10.0);
  EXPECT_GT(p_lo, 0.3);
  EXPECT_LT(p_hi, 0.7);
}

}  // namespace
