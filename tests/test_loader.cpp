#include "browser/loader.h"

#include <gtest/gtest.h>

#include <set>

#include "web/generator.h"

namespace {

using namespace hispar;
using browser::LoadOptions;
using browser::LoadResult;
using browser::PageLoader;

class LoaderTest : public ::testing::Test {
 protected:
  LoaderTest()
      : web_({120, 11, 200, false}),
        latency_(),
        cdn_(web_.cdn_registry(), latency_),
        resolver_({"local", 1, 6.0, net::Region::kNorthAmerica, 1.0},
                  latency_),
        loader_({&latency_, &web_.cdn_registry(), &cdn_, &resolver_,
                 net::Region::kNorthAmerica}) {}

  LoadResult load(const web::WebPage& page, std::uint64_t seed = 1,
                  LoadOptions options = {}) {
    return loader_.load(page, util::Rng(seed), options);
  }

  web::SyntheticWeb web_;
  net::LatencyModel latency_;
  cdn::CdnHierarchy cdn_;
  net::CachingResolver resolver_;
  PageLoader loader_;
};

TEST_F(LoaderTest, HarCoversEveryObject) {
  const auto page = web_.site_by_rank(5).page(1);
  const auto result = load(page);
  EXPECT_EQ(result.har.entries.size(), page.objects.size());
  EXPECT_EQ(result.har.page_url, page.url.str());
}

TEST_F(LoaderTest, TimingPhasesAreNonNegative) {
  const auto page = web_.site_by_rank(9).page(2);
  const auto result = load(page);
  for (const auto& entry : result.har.entries) {
    EXPECT_GE(entry.timings.blocked, 0.0);
    EXPECT_GE(entry.timings.dns, 0.0);
    EXPECT_GE(entry.timings.connect, 0.0);
    EXPECT_GE(entry.timings.ssl, 0.0);
    EXPECT_GE(entry.timings.send, 0.0);
    EXPECT_GT(entry.timings.wait, 0.0);
    EXPECT_GE(entry.timings.receive, 0.0);
    EXPECT_GE(entry.started_at_ms, 0.0);
  }
}

TEST_F(LoaderTest, NavigationTimingOrdering) {
  const auto page = web_.site_by_rank(3).page(0);
  const auto result = load(page);
  EXPECT_GT(result.plt_ms, 0.0);
  EXPECT_GT(result.on_load_ms, 0.0);
  EXPECT_GT(result.speed_index_ms, 0.0);
  // The root document must finish before anything else starts.
  const double root_finish = result.har.entries.front().finished_at_ms();
  for (std::size_t i = 1; i < result.har.entries.size(); ++i)
    EXPECT_GE(result.har.entries[i].started_at_ms, root_finish);
}

TEST_F(LoaderTest, DeterministicGivenSeedAndFreshState) {
  // The environment is stateful (resolver cache, CDN LRU), so
  // determinism holds for equal seeds *and* equal starting state.
  const auto page = web_.site_by_rank(5).page(1);
  const auto run_fresh = [&] {
    cdn::CdnHierarchy cdn(web_.cdn_registry(), latency_);
    net::CachingResolver resolver(
        {"local", 1, 6.0, net::Region::kNorthAmerica, 1.0}, latency_);
    PageLoader loader({&latency_, &web_.cdn_registry(), &cdn, &resolver,
                       net::Region::kNorthAmerica});
    return loader.load(page, util::Rng(42));
  };
  const auto a = run_fresh();
  const auto b = run_fresh();
  EXPECT_DOUBLE_EQ(a.plt_ms, b.plt_ms);
  EXPECT_DOUBLE_EQ(a.on_load_ms, b.on_load_ms);
  EXPECT_EQ(a.handshakes, b.handshakes);
}

TEST_F(LoaderTest, RepeatLoadsBenefitFromSharedCdnState) {
  // Our own first fetch warms the edge LRU; the repeat load hits the
  // CDN cache at least as often (processing jitter makes raw wait-time
  // comparisons noisy, so we compare hits).
  const auto page = web_.site_by_rank(2).page(0);
  const auto first = load(page, 7);
  const auto repeat = load(page, 7);
  EXPECT_GE(repeat.x_cache_hits, first.x_cache_hits);
  EXPECT_LE(repeat.x_cache_misses, first.x_cache_misses);
}

TEST_F(LoaderTest, DnsLookupsBoundedByUniqueHosts) {
  const auto page = web_.site_by_rank(5).page(1);
  LoadOptions options;
  options.use_resource_hints = false;
  const auto result = load(page, 1, options);
  std::set<std::string> hosts;
  for (const auto& o : page.objects) hosts.insert(o.host);
  EXPECT_EQ(static_cast<std::size_t>(result.dns_lookups), hosts.size());
}

TEST_F(LoaderTest, HandshakesAtLeastOnePerHost) {
  const auto page = web_.site_by_rank(5).page(1);
  LoadOptions options;
  options.use_resource_hints = false;
  const auto result = load(page, 1, options);
  std::set<std::string> hosts;
  for (const auto& o : page.objects) hosts.insert(o.host);
  EXPECT_GE(static_cast<std::size_t>(result.handshakes), hosts.size());
  EXPECT_GT(result.handshake_time_ms, 0.0);
}

TEST_F(LoaderTest, DisablingReuseOpensConnectionPerRequest) {
  const auto page = web_.site_by_rank(5).page(1);
  LoadOptions reuse;
  reuse.use_resource_hints = false;
  LoadOptions no_reuse = reuse;
  no_reuse.reuse_connections = false;
  const auto with = load(page, 1, reuse);
  const auto without = load(page, 1, no_reuse);
  EXPECT_GT(without.handshakes, with.handshakes);
  EXPECT_EQ(static_cast<std::size_t>(without.handshakes),
            page.objects.size());
}

TEST_F(LoaderTest, QuicZeroRttEliminatesHandshakeRtts) {
  const auto page = web_.site_by_rank(5).page(1);
  LoadOptions base;
  base.use_resource_hints = false;
  LoadOptions quic = base;
  quic.transport_override = net::TransportProtocol::kQuic0Rtt;
  const auto tls = load(page, 1, base);
  const auto zero_rtt = load(page, 1, quic);
  EXPECT_LT(zero_rtt.handshake_time_ms, tls.handshake_time_ms);
}

TEST_F(LoaderTest, XCacheCountsOnlyFromEmittingProviders) {
  const auto page = web_.site_by_rank(2).page(0);
  const auto result = load(page);
  int with_header = 0;
  for (const auto& entry : result.har.entries)
    with_header += entry.response_headers.x_cache != browser::XCache::kNone;
  EXPECT_EQ(with_header, result.x_cache_hits + result.x_cache_misses);
}

TEST_F(LoaderTest, ColdCdnIncreasesWait) {
  const auto page = web_.site_by_rank(2).page(0);
  const auto run_fresh = [&](bool model_warmth) {
    cdn::CdnHierarchy cdn(web_.cdn_registry(), latency_);
    net::CachingResolver resolver(
        {"local", 1, 6.0, net::Region::kNorthAmerica, 1.0}, latency_);
    PageLoader loader({&latency_, &web_.cdn_registry(), &cdn, &resolver,
                       net::Region::kNorthAmerica});
    LoadOptions options;
    options.model_cdn_warmth = model_warmth;
    return loader.load(page, util::Rng(3), options);
  };
  const auto warm_result = run_fresh(true);
  const auto cold_result = run_fresh(false);
  double warm_wait = 0.0, cold_wait = 0.0;
  for (const auto& e : warm_result.har.entries) warm_wait += e.timings.wait;
  for (const auto& e : cold_result.har.entries) cold_wait += e.timings.wait;
  EXPECT_GT(cold_wait, warm_wait);
}

TEST_F(LoaderTest, EmptyPageRejected) {
  web::WebPage page;
  EXPECT_THROW(load(page), std::invalid_argument);
}

TEST_F(LoaderTest, IncompleteEnvironmentRejected) {
  EXPECT_THROW(PageLoader({nullptr, nullptr, nullptr, nullptr,
                           net::Region::kNorthAmerica}),
               std::invalid_argument);
}

TEST_F(LoaderTest, MixedContentSurvivesIntoHar) {
  // Find a page with an HTTP subresource on an HTTPS document.
  for (std::size_t rank = 1; rank <= 120; ++rank) {
    for (std::size_t index = 0; index <= 3; ++index) {
      const auto page = web_.site_by_rank(rank).page(index);
      if (!page.has_mixed_content()) continue;
      const auto result = load(page);
      EXPECT_TRUE(result.har.has_mixed_content());
      return;
    }
  }
  GTEST_SKIP() << "no mixed-content page in the small universe";
}

}  // namespace
