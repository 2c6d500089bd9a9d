// Browsing-session engine tests.
//
// Three layers, matching the subsystem's structure:
//  * browser::HttpCache — the standards-style state machine in
//    isolation (fresh within lifetime, stale-then-revalidate, LRU by
//    bytes, oversized-update eviction) and its lifetime counters;
//  * browser::SessionState through PageLoader — warm-page behaviour
//    (fresh hits skip the network and must not consume fault-injector
//    draws, stale entries revalidate for header-sized transfers) and
//    the sessions-off null-pointer no-op;
//  * core::SessionCampaign — the campaign contract: visit order is a
//    pure function of (seed, domain, list), artifacts are byte-identical
//    for any --jobs value, checkpoints resume bit-identically after a
//    kill (torn trailing blocks are discarded), and the warm arm
//    actually narrows the landing-vs-internal gap the paper measures.
#include "core/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "browser/http_cache.h"
#include "browser/loader.h"
#include "core/analyses.h"
#include "core/hispar.h"
#include "core/measurement.h"
#include "core/serialization.h"
#include "net/faults.h"
#include "obs/trace.h"
#include "web/generator.h"

namespace {

using namespace hispar;
using browser::CacheOutcome;
using browser::HttpCache;

// ---------------------------------------------------------------------
// HttpCache state machine
// ---------------------------------------------------------------------

TEST(HttpCacheTest, MissInsertFreshLifecycle) {
  HttpCache cache(1000);
  EXPECT_EQ(cache.lookup("a", 0.0), CacheOutcome::kMiss);
  cache.insert("a", 100, 0.0, 60.0);
  EXPECT_EQ(cache.lookup("a", 30.0), CacheOutcome::kFresh);
  EXPECT_EQ(cache.used_bytes(), 100u);
  EXPECT_EQ(cache.entries(), 1u);
  const auto& s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.fresh_hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(HttpCacheTest, StaleEntryRevalidatesAndRenews) {
  HttpCache cache(1000);
  cache.insert("a", 100, 0.0, 60.0);
  // Past the lifetime the entry is stale, not gone: the loader moves
  // headers only (304) and renews it.
  EXPECT_EQ(cache.lookup("a", 90.0), CacheOutcome::kStale);
  cache.revalidated("a", 90.0, 60.0);
  EXPECT_EQ(cache.lookup("a", 120.0), CacheOutcome::kFresh);
  EXPECT_EQ(cache.lookup("a", 200.0), CacheOutcome::kStale);
  const auto& s = cache.stats();
  EXPECT_EQ(s.lookups, 3u);
  EXPECT_EQ(s.fresh_hits, 1u);
  EXPECT_EQ(s.revalidations, 1u);
  // Stale lookups are not an outcome bucket of their own: the classified
  // counters only bound the lookup count from below.
  EXPECT_LE(s.fresh_hits + s.revalidations + s.misses, s.lookups);
}

TEST(HttpCacheTest, EvictsLeastRecentlyUsedByBytes) {
  HttpCache cache(100);
  cache.insert("a", 60, 0.0, 3600.0);
  cache.insert("b", 30, 1.0, 3600.0);
  // Touch `a` so `b` is the LRU victim when `c` needs room.
  EXPECT_EQ(cache.lookup("a", 2.0), CacheOutcome::kFresh);
  cache.insert("c", 30, 3.0, 3600.0);
  EXPECT_EQ(cache.lookup("a", 4.0), CacheOutcome::kFresh);
  EXPECT_EQ(cache.lookup("b", 4.0), CacheOutcome::kMiss);
  EXPECT_EQ(cache.lookup("c", 4.0), CacheOutcome::kFresh);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.used_bytes(), 100u);
}

TEST(HttpCacheTest, OversizedObjectIsNotAdmitted) {
  HttpCache cache(100);
  cache.insert("big", 500, 0.0, 3600.0);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.lookup("big", 1.0), CacheOutcome::kMiss);
}

TEST(HttpCacheTest, OversizedUpdateEvictsTheResidentEntry) {
  // Same contract as cdn::LruCache: an update that no longer fits must
  // not leave the stale small body behind.
  HttpCache cache(100);
  cache.insert("a", 40, 0.0, 3600.0);
  cache.insert("a", 500, 1.0, 3600.0);
  EXPECT_EQ(cache.lookup("a", 2.0), CacheOutcome::kMiss);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(HttpCacheTest, RevalidatedAfterEvictionIsANoOp) {
  HttpCache cache(100);
  cache.insert("a", 60, 0.0, 1.0);
  EXPECT_EQ(cache.lookup("a", 10.0), CacheOutcome::kStale);
  cache.insert("b", 90, 11.0, 3600.0);  // evicts `a` while it awaits a 304
  cache.revalidated("a", 12.0, 3600.0);
  EXPECT_EQ(cache.lookup("a", 13.0), CacheOutcome::kMiss);
  EXPECT_EQ(cache.stats().revalidations, 0u);
}

TEST(HttpCacheTest, ZeroCapacityIsRejected) {
  EXPECT_THROW(HttpCache cache(0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Loader-level session semantics
// ---------------------------------------------------------------------

class SessionLoaderTest : public ::testing::Test {
 protected:
  SessionLoaderTest()
      : web_({120, 11, 200, false}),
        latency_(),
        cdn_(web_.cdn_registry(), latency_),
        resolver_({"local", 1, 6.0, net::Region::kNorthAmerica, 1.0},
                  latency_),
        loader_({&latency_, &web_.cdn_registry(), &cdn_, &resolver_,
                 net::Region::kNorthAmerica}) {}

  browser::LoadResult load(const web::WebPage& page,
                           browser::LoadOptions options,
                           std::uint64_t seed = 1) {
    return loader_.load(page, util::Rng(seed), options);
  }

  web::SyntheticWeb web_;
  net::LatencyModel latency_;
  cdn::CdnHierarchy cdn_;
  net::CachingResolver resolver_;
  browser::PageLoader loader_;
};

TEST_F(SessionLoaderTest, SecondVisitHitsTheCacheAndLoadsFaster) {
  const auto page = web_.site_by_rank(5).page(1);
  browser::SessionState client(50'000'000);
  browser::LoadOptions options;
  options.session = &client;
  const auto cold = load(page, options);
  options.start_time_s = cold.on_load_ms / 1000.0 + 1.0;
  const auto warm = load(page, options);
  // The first visit misses on every distinct key (site-shared assets
  // repeated within the page may already hit); the second visit serves
  // strictly more locally and fetches strictly less.
  EXPECT_GT(cold.cache_misses, 0);
  EXPECT_GT(warm.cache_fresh_hits, cold.cache_fresh_hits);
  EXPECT_LT(warm.cache_misses, cold.cache_misses);
  EXPECT_LT(warm.plt_ms, cold.plt_ms);
  // Warm DNS + keep-alive: the second page of a session re-resolves and
  // re-handshakes strictly less.
  EXPECT_LT(warm.dns_lookups, cold.dns_lookups);
  EXPECT_LT(warm.handshakes, cold.handshakes);
}

TEST_F(SessionLoaderTest, FreshHitCountIsIndifferentToFaultInjection) {
  // One half of the satellite contract: fault decisions ride their own
  // keyed stream, so injecting faults into the network path must not
  // change which objects the cache serves locally.
  const auto page = web_.site_by_rank(7).page(2);
  const auto warm_visit = [&](net::FaultInjector* injector) {
    cdn::CdnHierarchy cdn(web_.cdn_registry(), latency_);
    net::CachingResolver resolver(
        {"local", 1, 6.0, net::Region::kNorthAmerica, 1.0}, latency_);
    browser::PageLoader loader({&latency_, &web_.cdn_registry(), &cdn,
                                &resolver, net::Region::kNorthAmerica});
    browser::SessionState client(50'000'000);
    browser::LoadOptions options;
    options.session = &client;
    loader.load(page, util::Rng(3), options);  // fill, fault-free
    options.start_time_s = 100.0;
    options.faults = injector;
    return loader.load(page, util::Rng(3), options);
  };
  const auto clean = warm_visit(nullptr);
  net::FaultInjector injector(net::FaultProfile::uniform(0.10),
                              util::Rng(99));
  const auto faulty = warm_visit(&injector);
  ASSERT_GT(clean.cache_fresh_hits, 0);
  EXPECT_EQ(faulty.cache_fresh_hits, clean.cache_fresh_hits);
}

TEST_F(SessionLoaderTest, NullSessionDrawsNothingExtra) {
  // options.session == nullptr must be byte-identical to a build that
  // never had the feature; spot-check against default options on a
  // fresh substrate.
  const auto page = web_.site_by_rank(9).page(0);
  const auto run = [&](bool set_null_session) {
    cdn::CdnHierarchy cdn(web_.cdn_registry(), latency_);
    net::CachingResolver resolver(
        {"local", 1, 6.0, net::Region::kNorthAmerica, 1.0}, latency_);
    browser::PageLoader loader({&latency_, &web_.cdn_registry(), &cdn,
                                &resolver, net::Region::kNorthAmerica});
    browser::LoadOptions options;
    if (set_null_session) options.session = nullptr;
    return loader.load(page, util::Rng(17), options);
  };
  const auto a = run(false);
  const auto b = run(true);
  EXPECT_EQ(a.plt_ms, b.plt_ms);
  EXPECT_EQ(a.speed_index_ms, b.speed_index_ms);
  EXPECT_EQ(a.handshakes, b.handshakes);
  EXPECT_EQ(a.cache_fresh_hits, 0);
  EXPECT_EQ(b.cache_misses, 0);  // no cache consulted at all
}

// ---------------------------------------------------------------------
// SessionCampaign
// ---------------------------------------------------------------------

class SessionCampaignTest : public ::testing::Test {
 protected:
  SessionCampaignTest()
      : web_({150, 37, 300, false}), toplists_(web_), engine_(web_) {
    core::HisparBuilder builder(web_, toplists_, engine_);
    core::HisparConfig config;
    config.target_sites = 12;
    config.urls_per_site = 6;
    config.min_internal_results = 4;
    list_ = builder.build(config, 0);
  }

  core::SessionConfig session_config() {
    core::SessionConfig config;
    config.base.landing_loads = 2;
    config.base.shards = 4;
    config.session_len = 3;
    return config;
  }

  struct RunBytes {
    std::string csv;
    std::string warm_hits;
    std::string metrics;
    std::string trace;
  };

  RunBytes run_bytes(core::SessionConfig config) {
    config.base.observability.enabled = true;
    core::SessionCampaign campaign(web_, config);
    const auto sites = campaign.run(list_);
    RunBytes bytes;
    std::ostringstream csv;
    core::write_measure_csv(csv, sites);
    bytes.csv = csv.str();
    std::ostringstream warm_hits;
    core::write_warm_hits_csv(warm_hits, sites, campaign.cache_stats());
    bytes.warm_hits = warm_hits.str();
    std::ostringstream metrics;
    campaign.telemetry().metrics.write_json(metrics);
    bytes.metrics = metrics.str();
    std::ostringstream trace;
    obs::write_chrome_trace(trace, campaign.telemetry().spans);
    bytes.trace = trace.str();
    return bytes;
  }

  std::string temp_path(const char* name) {
    return std::string("/tmp/hispar_session_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + name;
  }

  web::SyntheticWeb web_;
  toplist::TopListFactory toplists_;
  search::SearchEngine engine_;
  core::HisparList list_;
};

TEST_F(SessionCampaignTest, SessionPagesAreAPureFunctionOfSeedAndDomain) {
  const auto& set = list_.sets.front();
  ASSERT_GE(set.page_indices.size(), 4u);
  const auto pages = core::SessionCampaign::session_pages(42, set, 3);
  ASSERT_EQ(pages.size(), 4u);  // landing + 3 internals
  EXPECT_EQ(pages.front(), set.page_indices.front());
  // Repeatable, drawn from the set, no duplicates.
  EXPECT_EQ(pages, core::SessionCampaign::session_pages(42, set, 3));
  std::set<std::size_t> unique(pages.begin(), pages.end());
  EXPECT_EQ(unique.size(), pages.size());
  for (const std::size_t page : pages)
    EXPECT_NE(std::find(set.page_indices.begin(), set.page_indices.end(),
                        page),
              set.page_indices.end());
  // A longer budget than the set caps at the whole set.
  EXPECT_EQ(core::SessionCampaign::session_pages(42, set, 100).size(),
            set.page_indices.size());
  // The axes are live: another seed or another domain reshuffles for at
  // least one of the list's sites.
  bool seed_matters = false, domain_matters = false;
  for (const auto& other : list_.sets) {
    if (other.page_indices.size() < 4) continue;
    seed_matters =
        seed_matters || core::SessionCampaign::session_pages(42, other, 3) !=
                            core::SessionCampaign::session_pages(43, other, 3);
    auto renamed = other;
    renamed.domain += ".example";
    domain_matters =
        domain_matters || core::SessionCampaign::session_pages(42, other, 3) !=
                              core::SessionCampaign::session_pages(
                                  42, renamed, 3);
  }
  EXPECT_TRUE(seed_matters);
  EXPECT_TRUE(domain_matters);
}

TEST_F(SessionCampaignTest, ZeroSessionLenIsRejected) {
  auto config = session_config();
  config.session_len = 0;
  core::SessionCampaign campaign(web_, config);
  EXPECT_THROW(campaign.run(list_), std::invalid_argument);
}

TEST_F(SessionCampaignTest, WarmSessionsNarrowTheGapColdControlDoesNot) {
  auto warm_config = session_config();
  auto cold_config = warm_config;
  cold_config.warm = false;
  core::SessionCampaign warm_campaign(web_, warm_config);
  core::SessionCampaign cold_campaign(web_, cold_config);
  const auto warm = warm_campaign.run(list_);
  const auto cold = cold_campaign.run(list_);
  ASSERT_EQ(warm.size(), cold.size());

  // The control arm never touches a cache.
  for (const auto& stats : cold_campaign.cache_stats())
    EXPECT_EQ(stats, browser::CacheStats{});
  std::uint64_t fresh = 0;
  for (const auto& stats : warm_campaign.cache_stats())
    fresh += stats.fresh_hits;
  EXPECT_GT(fresh, 0u);

  // Same sites, same visit order — the only difference is the client
  // state carried across a session's pages, so warm internal pages are
  // strictly cheaper in aggregate.
  double warm_plt = 0.0, cold_plt = 0.0;
  double warm_handshakes = 0.0, cold_handshakes = 0.0;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].domain, cold[i].domain);
    ASSERT_EQ(warm[i].internals.size(), cold[i].internals.size());
    for (std::size_t j = 0; j < warm[i].internals.size(); ++j) {
      warm_plt += warm[i].internals[j].plt_ms;
      cold_plt += cold[i].internals[j].plt_ms;
      warm_handshakes += warm[i].internals[j].handshakes;
      cold_handshakes += cold[i].internals[j].handshakes;
    }
  }
  EXPECT_LT(warm_plt, cold_plt);
  EXPECT_LT(warm_handshakes, cold_handshakes);

  // And the session report built from the pair reflects it.
  const auto report = core::build_session_report(
      cold, warm, warm_campaign.cache_stats(), warm_campaign.telemetry(),
      warm_config.session_len);
  EXPECT_GT(report.cache_fresh_hits, 0u);
  EXPECT_GT(report.warm_hit_ratio(), 0.0);
  bool saw_plt = false;
  for (const auto& line : report.metric_lines) {
    if (line.metric != "plt_ms") continue;
    saw_plt = true;
    ASSERT_TRUE(line.has_values);
    const double cold_gap =
        line.cold_internal_median - line.cold_landing_median;
    const double warm_gap =
        line.warm_internal_median - line.warm_landing_median;
    EXPECT_LT(warm_gap, cold_gap)
        << "warm replay did not narrow the internal-page PLT cost";
  }
  EXPECT_TRUE(saw_plt);
}

TEST_F(SessionCampaignTest, JobsNeverChangeSessionArtifactBytes) {
  // The sessions axis of the determinism matrix, with fault injection
  // active so retry/fault keying is exercised too.
  for (const std::string profile : {"none", "uniform:0.05"}) {
    auto config = session_config();
    config.base.fault_profile = net::FaultProfile::parse(profile);
    config.base.jobs = 1;
    const RunBytes reference = run_bytes(config);
    for (const std::size_t jobs : {2u, 8u}) {
      config.base.jobs = jobs;
      const RunBytes other = run_bytes(config);
      const std::string cell = profile + ", jobs " + std::to_string(jobs);
      EXPECT_EQ(reference.csv, other.csv) << "session CSV differs: " << cell;
      EXPECT_EQ(reference.warm_hits, other.warm_hits)
          << "warm-hits CSV differs: " << cell;
      EXPECT_EQ(reference.metrics, other.metrics)
          << "metrics JSON differs: " << cell;
      EXPECT_EQ(reference.trace, other.trace)
          << "trace JSON differs: " << cell;
    }
  }
}

TEST_F(SessionCampaignTest, SessionLoadTelemetryMatchesTheColdCampaigns) {
  // Sessions and the cold campaign fetch through one path, so a session
  // run reports the same loader counters as a cold run over the same
  // list, and its load spans carry the same arguments.
  auto config = session_config();
  config.base.observability.enabled = true;
  core::SessionCampaign sessions(web_, config);
  sessions.run(list_);
  core::MeasurementCampaign cold(web_, config.base);
  cold.run(list_);

  const auto loader_counters = [](const obs::RunTelemetry& telemetry) {
    std::set<std::string> names;
    for (const auto& [name, value] : telemetry.metrics.counters())
      if (name.rfind("loader.", 0) == 0) names.insert(name);
    return names;
  };
  const auto session_names = loader_counters(sessions.telemetry());
  EXPECT_EQ(session_names, loader_counters(cold.telemetry()));
  EXPECT_EQ(session_names.count("loader.x_cache_hits"), 1u);

  const auto load_args = [](const obs::RunTelemetry& telemetry) {
    std::set<std::vector<std::string>> shapes;
    for (const auto& span : telemetry.spans) {
      if (span.cat != "load") continue;
      std::vector<std::string> keys;
      for (const auto& [key, value] : span.args) keys.push_back(key);
      shapes.insert(keys);
    }
    return shapes;
  };
  const auto session_shapes = load_args(sessions.telemetry());
  EXPECT_EQ(session_shapes, load_args(cold.telemetry()));
  EXPECT_EQ(session_shapes.size(), 1u);
}

TEST_F(SessionCampaignTest, CacheCapacityNeverLeaksIntoTheStreamKeys) {
  // The other half of the satellite contract: every fault/chaos/load
  // stream is keyed by (seed, domain, page, attempt) — never by the
  // cache configuration. Two capacities large enough that neither ever
  // evicts produce the same lookup/insert sequence, so every artifact
  // byte must match; a keying leak (cache_bytes folded into an RNG
  // stream, a fresh hit consuming an injector draw it should skip)
  // breaks the equality.
  auto big = session_config();
  big.base.fault_profile = net::FaultProfile::uniform(0.08);
  auto bigger = big;
  bigger.cache_bytes = big.cache_bytes * 10;
  const RunBytes a = run_bytes(big);
  const RunBytes b = run_bytes(bigger);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.warm_hits, b.warm_hits);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
  // The cell is live: faults actually struck.
  EXPECT_NE(a.metrics.find("faults.injected"), std::string::npos);
}

TEST_F(SessionCampaignTest, ResumeFromCompleteCheckpointIsIdentical) {
  auto config = session_config();
  config.base.fault_profile = net::FaultProfile::uniform(0.05);
  config.base.observability.enabled = true;
  const RunBytes uninterrupted = run_bytes(config);

  const std::string path = temp_path("complete");
  std::remove(path.c_str());
  config.checkpoint_path = path;
  const RunBytes first = run_bytes(config);
  EXPECT_EQ(uninterrupted.csv, first.csv);

  // Every session is on disk now: the rerun splices them all back in,
  // telemetry included.
  const RunBytes resumed = run_bytes(config);
  EXPECT_EQ(uninterrupted.csv, resumed.csv);
  EXPECT_EQ(uninterrupted.warm_hits, resumed.warm_hits);
  EXPECT_EQ(uninterrupted.metrics, resumed.metrics);
  EXPECT_EQ(uninterrupted.trace, resumed.trace);
  std::remove(path.c_str());
}

TEST_F(SessionCampaignTest, ResumeFromKilledCampaignDiscardsTheTornTail) {
  auto config = session_config();
  config.base.fault_profile = net::FaultProfile::uniform(0.05);
  config.base.observability.enabled = true;
  const RunBytes uninterrupted = run_bytes(config);

  const std::string full_path = temp_path("full");
  std::remove(full_path.c_str());
  config.checkpoint_path = full_path;
  run_bytes(config);

  // Simulate a kill: keep the header, the first complete session block,
  // and a torn fragment of the second.
  std::ifstream full(full_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(full, line);) lines.push_back(line);
  full.close();
  std::size_t first_end = 0;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].rfind("endsession,", 0) == 0) {
      first_end = i;
      break;
    }
  ASSERT_GT(first_end, 0u) << "campaign wrote no complete session";
  ASSERT_GT(lines.size(), first_end + 2) << "need a second block to tear";

  const std::string torn_path = temp_path("torn");
  {
    std::ofstream torn(torn_path);
    for (std::size_t i = 0; i <= first_end + 1; ++i) torn << lines[i] << '\n';
    torn << lines[first_end + 2].substr(0, lines[first_end + 2].size() / 2);
  }

  config.checkpoint_path = torn_path;
  const RunBytes resumed = run_bytes(config);
  EXPECT_EQ(uninterrupted.csv, resumed.csv);
  EXPECT_EQ(uninterrupted.warm_hits, resumed.warm_hits);
  EXPECT_EQ(uninterrupted.metrics, resumed.metrics);
  EXPECT_EQ(uninterrupted.trace, resumed.trace);

  std::remove(full_path.c_str());
  std::remove(torn_path.c_str());
}

TEST_F(SessionCampaignTest, MismatchedSessionConfigIsRejectedOnResume) {
  auto config = session_config();
  const std::string path = temp_path("digest");
  std::remove(path.c_str());
  config.checkpoint_path = path;
  core::SessionCampaign first(web_, config);
  first.run(list_);

  // Session knobs are part of the fingerprint...
  auto longer = config;
  longer.session_len = 4;
  core::SessionCampaign second(web_, longer);
  EXPECT_THROW(second.run(list_), std::runtime_error);
  auto colder = config;
  colder.warm = false;
  core::SessionCampaign third(web_, colder);
  EXPECT_THROW(third.run(list_), std::runtime_error);

  // ...jobs is explicitly not.
  auto more_jobs = config;
  more_jobs.base.jobs = 8;
  core::SessionCampaign fourth(web_, more_jobs);
  EXPECT_EQ(fourth.run(list_).size(), list_.sets.size());
  std::remove(path.c_str());
}

TEST_F(SessionCampaignTest, CheckpointDigestCoversTheSessionKnobs) {
  const auto config = session_config();
  const core::SessionCampaign reference(web_, config);
  const std::uint64_t digest = reference.checkpoint_digest(list_);
  auto longer = config;
  longer.session_len = 4;
  auto smaller = config;
  smaller.cache_bytes = 1024;
  auto colder = config;
  colder.warm = false;
  auto reseeded = config;
  reseeded.base.seed = config.base.seed + 1;
  EXPECT_NE(core::SessionCampaign(web_, longer).checkpoint_digest(list_),
            digest);
  EXPECT_NE(core::SessionCampaign(web_, smaller).checkpoint_digest(list_),
            digest);
  EXPECT_NE(core::SessionCampaign(web_, colder).checkpoint_digest(list_),
            digest);
  EXPECT_NE(core::SessionCampaign(web_, reseeded).checkpoint_digest(list_),
            digest);
  auto more_jobs = config;
  more_jobs.base.jobs = 8;
  EXPECT_EQ(core::SessionCampaign(web_, more_jobs).checkpoint_digest(list_),
            digest);
}

// ---------------------------------------------------------------------
// Analysis plumbing
// ---------------------------------------------------------------------

TEST_F(SessionCampaignTest, AnalysisHelpersRejectMismatchedInputs) {
  core::SessionCampaign campaign(web_, session_config());
  const auto warm = campaign.run(list_);
  auto truncated = warm;
  truncated.pop_back();
  EXPECT_THROW(core::cold_warm_delta(truncated, warm),
               std::invalid_argument);
  auto stats = campaign.cache_stats();
  stats.pop_back();
  std::ostringstream os;
  EXPECT_THROW(core::write_warm_hits_csv(os, warm, stats),
               std::invalid_argument);
}

TEST_F(SessionCampaignTest, WarmHitsCsvIsWellFormed) {
  auto config = session_config();
  core::SessionCampaign campaign(web_, config);
  const auto warm = campaign.run(list_);
  std::ostringstream os;
  core::write_warm_hits_csv(os, warm, campaign.cache_stats());
  std::istringstream in(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header,
            "domain,rank,lookups,fresh_hits,revalidations,misses,"
            "insertions,evictions,warm_hit_ratio");
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) ++rows;
  EXPECT_EQ(rows, warm.size());
}

}  // namespace
