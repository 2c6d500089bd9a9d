// Component micro-benchmarks (google-benchmark): page generation, page
// loading, crawling, list building, the ad-block and header-bidding
// matchers, the tagged filter pass, symbol interning and the KS test.
// These guard the simulator's throughput — a full H1K campaign is ~29k
// page loads and must stay in the tens of seconds.
//
// After the micro-benches, main() runs a hot-path wall-clock pass (page
// materialization, repeated loads, and a campaign slice sized by
// HISPAR_SITES) and exports its timings as BENCH_perf.json when
// HISPAR_BENCH_JSON is set; diff two of those with tools/bench_diff to
// quantify a performance change (see README "Benchmarking").
#include <benchmark/benchmark.h>

#include <chrono>

#include "common.h"

#include "browser/adblock.h"
#include "browser/filters.h"
#include "browser/hb_detect.h"
#include "browser/loader.h"
#include "core/hispar.h"
#include "search/crawler.h"
#include "search/engine.h"
#include "util/intern.h"
#include "util/ks_test.h"
#include "web/generator.h"

namespace {

using namespace hispar;

const web::SyntheticWeb& shared_web() {
  static web::SyntheticWeb webx({3000, 42, 2000, true});
  return webx;
}

void BM_PageGeneration(benchmark::State& state) {
  const auto& site = shared_web().site_by_rank(
      static_cast<std::size_t>(state.range(0)));
  std::size_t index = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(site.page(index));
    index = index % 500 + 1;
  }
}
BENCHMARK(BM_PageGeneration)->Arg(10)->Arg(500);

void BM_PageLoad(benchmark::State& state) {
  const auto& webx = shared_web();
  net::LatencyModel latency;
  cdn::CdnHierarchy cdn(webx.cdn_registry(), latency);
  net::CachingResolver resolver({}, latency);
  browser::PageLoader loader(
      {&latency, &webx.cdn_registry(), &cdn, &resolver,
       net::Region::kNorthAmerica});
  const auto page = webx.site_by_rank(50).page(3);
  util::Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(loader.load(page, rng.fork(rng.next())));
}
BENCHMARK(BM_PageLoad);

void BM_CrawlSite(benchmark::State& state) {
  const auto& site = shared_web().site_by_rank(100);
  search::CrawlConfig config;
  config.max_unique_pages = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(search::crawl_site(site, config));
}
BENCHMARK(BM_CrawlSite)->Arg(500)->Arg(5000);

void BM_SiteQuery(benchmark::State& state) {
  const auto& webx = shared_web();
  search::SearchEngine engine(webx);
  const std::string domain = webx.domains()[99];
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.site_query(domain, 49, 0));
}
BENCHMARK(BM_SiteQuery);

// The §6.3 filter lists on one URL each. `tracker` matches partway
// through the URL; `first_party` matches nothing, the common case on a
// HAR, so it pays for a scan of the whole URL.
constexpr const char* kTrackerUrl =
    "https://securepubads.g.doubleclick.net/track/123-4";
constexpr const char* kFirstPartyUrl =
    "https://www.example.com/static/js/app.bundle.min.js?v=20200101";

void BM_AdblockMatch(benchmark::State& state, const char* url) {
  const auto blocker = browser::AdBlocker::easylist_lite();
  const std::string text = url;
  for (auto _ : state) benchmark::DoNotOptimize(blocker.matches(text));
}
BENCHMARK_CAPTURE(BM_AdblockMatch, tracker, kTrackerUrl);
BENCHMARK_CAPTURE(BM_AdblockMatch, first_party, kFirstPartyUrl);

void BM_HbClassify(benchmark::State& state, const char* url) {
  const auto detector = browser::HbDetector::standard();
  const std::string text = url;
  for (auto _ : state) benchmark::DoNotOptimize(detector.tags(text));
}
BENCHMARK_CAPTURE(BM_HbClassify, exchange,
                  "https://ib.adnxs.com/ut/v3/prebid");
BENCHMARK_CAPTURE(BM_HbClassify, first_party, kFirstPartyUrl);

// One pass of the shared tagged filter set: the tracker, exchange and
// creative verdicts extract_page_metrics takes on a URL memo miss.
void BM_UrlFlags(benchmark::State& state, const char* url) {
  const browser::FilterSet& filters = browser::standard_filters();
  const std::string text = url;
  for (auto _ : state) benchmark::DoNotOptimize(filters->flags(text));
}
BENCHMARK_CAPTURE(BM_UrlFlags, tracker, kTrackerUrl);
BENCHMARK_CAPTURE(BM_UrlFlags, first_party, kFirstPartyUrl);

// Interning URL-shaped keys, as the detection memos do for every HAR
// entry. `hit` re-interns keys already in the table (a memo hit);
// `miss` interns each key on first sight, clearing the table every
// kKeys interns, so arena stores and table growth are in the figure.
void BM_SymbolTableIntern(benchmark::State& state, bool hit) {
  constexpr std::size_t kKeys = 4096;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kKeys; ++i)
    keys.push_back("https://static" + std::to_string(i % 61) +
                   ".site" + std::to_string(i % 389) +
                   ".example/assets/js/chunk-" + std::to_string(i) +
                   ".min.js?v=20200101");
  util::SymbolTable table;
  if (hit)
    for (const std::string& key : keys) table.intern(key);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == kKeys) {
      next = 0;
      if (!hit) table.clear();
    }
    benchmark::DoNotOptimize(table.intern(keys[next++]));
  }
}
BENCHMARK_CAPTURE(BM_SymbolTableIntern, hit, true);
BENCHMARK_CAPTURE(BM_SymbolTableIntern, miss, false);

void BM_KsTest(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<double> a(10000), b(19000);
  for (auto& x : a) x = rng.normal();
  for (auto& x : b) x = rng.normal(0.1, 1.1);
  for (auto _ : state) benchmark::DoNotOptimize(util::ks_two_sample(a, b));
}
BENCHMARK(BM_KsTest);

// Wall-clock hot-path pass. Unlike the micro-benches above (per-call
// latency under a fresh state), this times the shapes a campaign
// actually runs — many pages of many sites, repeated loads through one
// loader, and a full campaign slice — so pooled/cached paths show their
// real effect.
void run_hotpath_pass() {
  using Clock = std::chrono::steady_clock;
  const auto elapsed_ms = [](Clock::time_point since) {
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
  };
  obs::MetricsRegistry metrics;
  const auto& webx = shared_web();

  // Page materialization across sites.
  auto started = Clock::now();
  constexpr std::size_t kGenSites = 400;
  constexpr std::size_t kGenPagesPerSite = 4;
  for (std::size_t rank = 1; rank <= kGenSites; ++rank) {
    const auto& site = webx.site_by_rank(rank);
    for (std::size_t index = 1; index <= kGenPagesPerSite; ++index)
      benchmark::DoNotOptimize(site.page(index));
  }
  metrics.gauge("perf.page_generation_ms") = elapsed_ms(started);
  metrics.gauge("perf.pages_generated") =
      static_cast<double>(kGenSites * kGenPagesPerSite);

  // Repeated loads through one loader (scratch reuse path).
  net::LatencyModel latency;
  cdn::CdnHierarchy cdn(webx.cdn_registry(), latency);
  net::CachingResolver resolver({}, latency);
  browser::PageLoader loader({&latency, &webx.cdn_registry(), &cdn, &resolver,
                              net::Region::kNorthAmerica});
  const auto page = webx.site_by_rank(50).page(3);
  util::Rng rng(7);
  started = Clock::now();
  constexpr std::size_t kLoads = 3000;
  for (std::size_t i = 0; i < kLoads; ++i)
    benchmark::DoNotOptimize(loader.load(page, rng.fork(rng.next())));
  metrics.gauge("perf.page_load_ms") = elapsed_ms(started);
  metrics.gauge("perf.page_loads") = static_cast<double>(kLoads);

  // Campaign slice (sized by HISPAR_SITES, default 240 to mirror
  // bench_parallel; HISPAR_JOBS sets workers). BenchWorld times its own
  // phases — fold them in under the perf.* names bench_diff tabulates.
  hispar::bench::BenchWorld world(/*run_campaign=*/true,
                                  hispar::bench::env_sites(240));
  metrics.gauge("perf.web_build_ms") =
      world.metrics.gauge_or("bench.web_build_ms");
  metrics.gauge("perf.list_build_ms") =
      world.metrics.gauge_or("bench.list_build_ms");
  metrics.gauge("perf.campaign_ms") =
      world.metrics.gauge_or("bench.campaign_ms");
  metrics.gauge("perf.campaign_sites") = world.metrics.gauge_or("bench.sites");

  hispar::bench::write_bench_json(metrics, "perf");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_hotpath_pass();
  return 0;
}
