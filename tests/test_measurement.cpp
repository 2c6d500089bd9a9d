#include "core/measurement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace hispar;
using core::CampaignConfig;
using core::MeasurementCampaign;
using core::PageMetrics;
using core::SiteObservation;

class MeasurementTest : public ::testing::Test {
 protected:
  MeasurementTest()
      : web_({150, 37, 300, false}), toplists_(web_), engine_(web_) {}

  core::HisparList build_list(std::size_t sites) {
    core::HisparBuilder builder(web_, toplists_, engine_);
    core::HisparConfig config;
    config.target_sites = sites;
    config.urls_per_site = 8;  // small sets keep the test fast
    config.min_internal_results = 4;
    return builder.build(config, 0);
  }

  web::SyntheticWeb web_;
  toplist::TopListFactory toplists_;
  search::SearchEngine engine_;
};

TEST_F(MeasurementTest, CampaignCoversEverySite) {
  const auto list = build_list(12);
  CampaignConfig config;
  config.landing_loads = 3;
  MeasurementCampaign campaign(web_, config);
  const auto sites = campaign.run(list);
  ASSERT_EQ(sites.size(), list.sets.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(sites[i].domain, list.sets[i].domain);
    EXPECT_EQ(sites[i].bootstrap_rank, list.sets[i].bootstrap_rank);
    EXPECT_EQ(sites[i].internals.size(), list.sets[i].internal_count());
  }
}

TEST_F(MeasurementTest, MetricsAreSane) {
  const auto list = build_list(8);
  CampaignConfig config;
  config.landing_loads = 3;
  MeasurementCampaign campaign(web_, config);
  const auto sites = campaign.run(list);
  for (const SiteObservation& site : sites) {
    const auto check = [](const PageMetrics& m) {
      EXPECT_GT(m.bytes, 0.0);
      EXPECT_GT(m.objects, 0.0);
      EXPECT_GT(m.plt_ms, 0.0);
      EXPECT_GE(m.on_load_ms, 0.0);
      EXPECT_GT(m.speed_index_ms, 0.0);
      EXPECT_GE(m.unique_domains, 1.0);
      EXPECT_GE(m.handshakes, 1.0);
      EXPECT_GE(m.noncacheable_objects, 0.0);
      EXPECT_LE(m.noncacheable_objects, m.objects);
      EXPECT_GE(m.cdn_bytes_fraction, 0.0);
      EXPECT_LE(m.cdn_bytes_fraction, 1.0);
      EXPECT_GE(m.cacheable_bytes_fraction, 0.0);
      EXPECT_LE(m.cacheable_bytes_fraction, 1.0);
      double mix_total = 0.0;
      for (double f : m.mix_fractions) mix_total += f;
      EXPECT_NEAR(mix_total, 1.0, 1e-6);
      double depth_total = 0.0;
      for (double c : m.depth_counts) depth_total += c;
      EXPECT_NEAR(depth_total, m.objects, 0.5);
      EXPECT_FALSE(m.wait_samples_ms.empty());
    };
    check(site.landing);
    for (const auto& metrics : site.internals) check(metrics);
  }
}

TEST_F(MeasurementTest, WaitSamplesAreCapped) {
  const auto list = build_list(4);
  CampaignConfig config;
  config.landing_loads = 1;
  config.wait_sample_cap = 10;
  MeasurementCampaign campaign(web_, config);
  const auto sites = campaign.run(list);
  for (const auto& site : sites)
    for (const auto& metrics : site.internals)
      EXPECT_LE(metrics.wait_samples_ms.size(), 10u);
}

TEST_F(MeasurementTest, InternalMedianMatchesManualComputation) {
  SiteObservation site;
  for (double value : {10.0, 30.0, 20.0}) {
    PageMetrics m;
    m.bytes = value;
    site.internals.push_back(m);
  }
  EXPECT_DOUBLE_EQ(
      site.internal_median([](const PageMetrics& m) { return m.bytes; }),
      20.0);
}

TEST_F(MeasurementTest, InternalMedianThrowsWithoutPages) {
  SiteObservation site;
  EXPECT_THROW(
      site.internal_median([](const PageMetrics& m) { return m.bytes; }),
      std::logic_error);
}

TEST_F(MeasurementTest, ThirdPartyUnionAcrossInternals) {
  SiteObservation site;
  PageMetrics a, b;
  a.third_parties = {"x.com", "y.com"};
  b.third_parties = {"y.com", "z.com"};
  site.internals = {a, b};
  const auto all = site.internal_third_parties();
  EXPECT_EQ(all.size(), 3u);
  EXPECT_TRUE(all.count("z.com"));
}

TEST_F(MeasurementTest, MeasureSiteHonorsExplicitPages) {
  CampaignConfig config;
  config.landing_loads = 2;
  MeasurementCampaign campaign(web_, config);
  const auto& site = web_.site_by_rank(5);
  const auto observation = campaign.measure_site(site, {1, 2, 3, 4});
  EXPECT_EQ(observation.internals.size(), 4u);
  EXPECT_EQ(observation.domain, site.domain());
}

// The campaign must refuse a list whose domain churned out of the web
// with the same descriptive std::logic_error in *every* phase; the
// internal-page and aggregation loops used to dereference a null site.
void expect_unknown_domain_throw(web::SyntheticWeb& web,
                                 const core::HisparList& list,
                                 int landing_loads) {
  CampaignConfig config;
  config.landing_loads = landing_loads;
  MeasurementCampaign campaign(web, config);
  try {
    campaign.run(list);
    FAIL() << "expected campaign: unknown domain";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown domain"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(MeasurementTest, UnknownDomainThrowsInLandingPath) {
  auto list = build_list(6);
  list.sets[2].domain = "churned-away.example";
  expect_unknown_domain_throw(web_, list, /*landing_loads=*/1);
}

TEST_F(MeasurementTest, UnknownDomainThrowsInInternalPath) {
  // Zero landing loads: the landing loop never touches the domain, so
  // the internal-page loop is the first to see it. A single-set list
  // keeps the other phases (and other sites) out of the picture.
  auto list = build_list(6);
  core::HisparList one;
  one.sets.push_back(list.sets[2]);
  one.sets[0].domain = "churned-away.example";
  ASSERT_GT(one.sets[0].page_indices.size(), 1u);
  expect_unknown_domain_throw(web_, one, /*landing_loads=*/0);
}

TEST_F(MeasurementTest, UnknownDomainThrowsInAggregationPath) {
  // Zero landing loads *and* no internal pages: only the final
  // aggregation loop sees the domain.
  auto list = build_list(6);
  core::HisparList one;
  one.sets.push_back(list.sets[2]);
  one.sets[0].domain = "churned-away.example";
  one.sets[0].urls.resize(1);
  one.sets[0].page_indices.resize(1);
  expect_unknown_domain_throw(web_, one, /*landing_loads=*/0);
}

TEST_F(MeasurementTest, MedianMetricsTakesMajorityVoteOnBools) {
  std::vector<PageMetrics> loads(3);
  loads[0].header_bidding = true;
  loads[1].header_bidding = true;
  loads[2].header_bidding = false;  // stochastic auction missed once
  loads[0].is_http = true;          // e.g. one load before the redirect
  const PageMetrics median = MeasurementCampaign::median_metrics(loads);
  EXPECT_TRUE(median.header_bidding);  // 2 of 3 loads saw bidding
  EXPECT_FALSE(median.is_http);        // 1 of 3 is not a majority
}

TEST_F(MeasurementTest, MedianMetricsFlagsMixedContentOnAnyLoad) {
  std::vector<PageMetrics> loads(4);
  loads[3].mixed_content = true;
  const PageMetrics median = MeasurementCampaign::median_metrics(loads);
  EXPECT_TRUE(median.mixed_content);
  EXPECT_FALSE(median.header_bidding);
  EXPECT_FALSE(median.is_http);
}

// Pins the numeric semantics of median_metrics (type-7 / R default
// quantile, the same rule util::median implements) against hand-worked
// values, so the sort-in-place rewrite — and any future one — cannot
// silently change the aggregate a site reports.
TEST_F(MeasurementTest, MedianMetricsMatchesHandComputedType7Median) {
  // Odd count: plain middle element, regardless of input order.
  std::vector<PageMetrics> odd(3);
  odd[0].plt_ms = 300.0;
  odd[1].plt_ms = 100.0;
  odd[2].plt_ms = 200.0;
  odd[0].bytes = 5.0;
  odd[1].bytes = 1.0;
  odd[2].bytes = 9.0;
  const PageMetrics odd_median = MeasurementCampaign::median_metrics(odd);
  EXPECT_DOUBLE_EQ(odd_median.plt_ms, 200.0);
  EXPECT_DOUBLE_EQ(odd_median.bytes, 5.0);

  // Even count: type-7 interpolates halfway between the two middle
  // order statistics — h = 0.5 * (4 - 1) = 1.5, so the median of
  // {10, 20, 40, 80} is 20 + 0.5 * (40 - 20) = 30.
  std::vector<PageMetrics> even(4);
  even[0].speed_index_ms = 80.0;
  even[1].speed_index_ms = 10.0;
  even[2].speed_index_ms = 40.0;
  even[3].speed_index_ms = 20.0;
  for (std::size_t i = 0; i < even.size(); ++i) {
    even[i].mix_fractions[1] = static_cast<double>(i + 1);  // {1,2,3,4}
    even[i].depth_counts[0] = static_cast<double>(10 * (i + 1));
  }
  const PageMetrics even_median = MeasurementCampaign::median_metrics(even);
  EXPECT_DOUBLE_EQ(even_median.speed_index_ms, 30.0);
  // Array-valued fields take elementwise medians over the loads.
  EXPECT_DOUBLE_EQ(even_median.mix_fractions[1], 2.5);
  EXPECT_DOUBLE_EQ(even_median.depth_counts[0], 25.0);

  // Non-median aggregations ride along: third parties union, wait
  // samples concatenate in load order.
  std::vector<PageMetrics> pooled(2);
  pooled[0].third_parties = {"a.com"};
  pooled[1].third_parties = {"a.com", "b.com"};
  pooled[0].wait_samples_ms = {1.0, 2.0};
  pooled[1].wait_samples_ms = {3.0};
  const PageMetrics merged = MeasurementCampaign::median_metrics(pooled);
  EXPECT_EQ(merged.third_parties.size(), 2u);
  const std::vector<double> expected_waits = {1.0, 2.0, 3.0};
  EXPECT_EQ(merged.wait_samples_ms, expected_waits);

  // A single load is returned untouched (no interpolation artifacts).
  std::vector<PageMetrics> one(1);
  one[0].plt_ms = 123.25;
  EXPECT_DOUBLE_EQ(MeasurementCampaign::median_metrics(one).plt_ms, 123.25);
}

TEST_F(MeasurementTest, CampaignIsDeterministicForSameSeed) {
  const auto list = build_list(5);
  CampaignConfig config;
  config.landing_loads = 2;
  config.seed = 99;
  MeasurementCampaign a(web_, config);
  MeasurementCampaign b(web_, config);
  const auto sa = a.run(list);
  const auto sb = b.run(list);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i].landing.plt_ms, sb[i].landing.plt_ms);
    EXPECT_DOUBLE_EQ(sa[i].landing.bytes, sb[i].landing.bytes);
  }
}

TEST_F(MeasurementTest, AblationSwitchesChangeBehavior) {
  const auto list = build_list(5);
  CampaignConfig base;
  base.landing_loads = 2;
  CampaignConfig no_reuse = base;
  no_reuse.load_options.reuse_connections = false;
  MeasurementCampaign campaign_a(web_, base);
  MeasurementCampaign campaign_b(web_, no_reuse);
  const auto with = campaign_a.run(list);
  const auto without = campaign_b.run(list);
  double handshakes_with = 0.0, handshakes_without = 0.0;
  for (std::size_t i = 0; i < with.size(); ++i) {
    handshakes_with += with[i].landing.handshakes;
    handshakes_without += without[i].landing.handshakes;
  }
  EXPECT_GT(handshakes_without, handshakes_with);
}

// Exhaustive equality over two observation vectors — checkpoint resume
// promises bit-identical results, so every double compares with ==.
void expect_observations_identical(const std::vector<SiteObservation>& a,
                                   const std::vector<SiteObservation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].domain, b[i].domain);
    EXPECT_EQ(a[i].bootstrap_rank, b[i].bootstrap_rank);
    EXPECT_EQ(a[i].category, b[i].category);
    EXPECT_EQ(a[i].quarantined, b[i].quarantined);
    EXPECT_EQ(a[i].total_retries, b[i].total_retries);
    EXPECT_EQ(a[i].outcomes, b[i].outcomes);
    const auto metrics_equal = [](const PageMetrics& x, const PageMetrics& y) {
      EXPECT_EQ(x.bytes, y.bytes);
      EXPECT_EQ(x.objects, y.objects);
      EXPECT_EQ(x.plt_ms, y.plt_ms);
      EXPECT_EQ(x.on_load_ms, y.on_load_ms);
      EXPECT_EQ(x.speed_index_ms, y.speed_index_ms);
      EXPECT_EQ(x.cacheable_bytes_fraction, y.cacheable_bytes_fraction);
      EXPECT_EQ(x.cdn_bytes_fraction, y.cdn_bytes_fraction);
      EXPECT_EQ(x.mix_fractions, y.mix_fractions);
      EXPECT_EQ(x.depth_counts, y.depth_counts);
      EXPECT_EQ(x.handshake_time_ms, y.handshake_time_ms);
      EXPECT_EQ(x.dns_time_ms, y.dns_time_ms);
      EXPECT_EQ(x.is_http, y.is_http);
      EXPECT_EQ(x.mixed_content, y.mixed_content);
      EXPECT_EQ(x.tracking_requests, y.tracking_requests);
      EXPECT_EQ(x.header_bidding, y.header_bidding);
      EXPECT_EQ(x.hb_ad_slots, y.hb_ad_slots);
      EXPECT_EQ(x.third_parties, y.third_parties);
      EXPECT_EQ(x.wait_samples_ms, y.wait_samples_ms);
    };
    metrics_equal(a[i].landing, b[i].landing);
    ASSERT_EQ(a[i].internals.size(), b[i].internals.size());
    for (std::size_t j = 0; j < a[i].internals.size(); ++j)
      metrics_equal(a[i].internals[j], b[i].internals[j]);
  }
}

class CheckpointTest : public MeasurementTest {
 protected:
  // A campaign config with faults on, so checkpoints carry quarantines,
  // retries and partial observations — the hard cases.
  CampaignConfig faulty_config() {
    CampaignConfig config;
    config.landing_loads = 2;
    config.shards = 4;
    config.fault_profile = net::FaultProfile::uniform(0.05);
    return config;
  }

  std::string temp_path(const char* name) {
    return std::string("/tmp/hispar_ckpt_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + name;
  }
};

TEST_F(MeasurementTest, CleanSubstrateRecordsCleanOutcomes) {
  const auto list = build_list(8);
  CampaignConfig config;
  config.landing_loads = 3;
  MeasurementCampaign campaign(web_, config);
  const auto sites = campaign.run(list);
  for (const auto& site : sites) {
    EXPECT_FALSE(site.quarantined);
    EXPECT_FALSE(site.degraded());
    EXPECT_DOUBLE_EQ(site.success_rate(), 1.0);
    EXPECT_EQ(site.total_retries, 0);
    // One outcome per landing round plus one per internal page.
    EXPECT_EQ(site.outcomes.size(), 3u + site.internals.size());
    for (const auto& outcome : site.outcomes) {
      EXPECT_EQ(outcome.status, browser::LoadStatus::kOk);
      EXPECT_EQ(outcome.failure, net::FaultKind::kNone);
      EXPECT_EQ(outcome.attempts, 1);
      EXPECT_EQ(outcome.failed_objects, 0);
    }
  }
  const auto summary = core::summarize_campaign(sites);
  EXPECT_EQ(summary.sites_ok, sites.size());
  EXPECT_EQ(summary.sites_degraded, 0u);
  EXPECT_EQ(summary.sites_quarantined, 0u);
  EXPECT_EQ(summary.total_retries, 0u);
  EXPECT_EQ(summary.failed_fetches, 0u);
  EXPECT_EQ(summary.degraded_fetches, 0u);
}

TEST_F(MeasurementTest, CertainFailureQuarantinesEverySite) {
  const auto list = build_list(5);
  CampaignConfig config;
  config.landing_loads = 2;
  config.max_page_retries = 1;
  config.fault_profile.dns_timeout = 1.0;
  MeasurementCampaign campaign(web_, config);
  const auto sites = campaign.run(list);
  for (const auto& site : sites) {
    EXPECT_TRUE(site.quarantined);
    EXPECT_TRUE(site.degraded());
    EXPECT_DOUBLE_EQ(site.success_rate(), 0.0);
    EXPECT_TRUE(site.internals.empty());
    for (const auto& outcome : site.outcomes) {
      EXPECT_EQ(outcome.status, browser::LoadStatus::kFailed);
      EXPECT_EQ(outcome.failure, net::FaultKind::kDnsTimeout);
      EXPECT_EQ(outcome.attempts, 2);  // 1 + max_page_retries
    }
  }
  const auto summary = core::summarize_campaign(sites);
  EXPECT_EQ(summary.sites_quarantined, sites.size());
  EXPECT_EQ(summary.sites_ok, 0u);
}

TEST_F(MeasurementTest, RetriesRecoverSomeFailedLoads) {
  const auto list = build_list(12);
  CampaignConfig config;
  config.landing_loads = 2;
  config.max_page_retries = 4;
  config.fault_profile = net::FaultProfile::uniform(0.06);
  // A whole-load failure needs every loader attempt to fail, so only a
  // heavy root-striking rate makes campaign-level retries observable.
  config.fault_profile.dns_timeout = 0.7;
  MeasurementCampaign campaign(web_, config);
  const auto sites = campaign.run(list);
  int recovered = 0;
  for (const auto& site : sites)
    for (const auto& outcome : site.outcomes)
      recovered += outcome.attempts > 1 &&
                   outcome.status != browser::LoadStatus::kFailed;
  EXPECT_GT(recovered, 0) << "no load recovered via campaign-level retry";
}

TEST_F(CheckpointTest, ResumeFromCompleteCheckpointIsIdentical) {
  const auto list = build_list(10);
  CampaignConfig config = faulty_config();

  MeasurementCampaign reference(web_, config);
  const auto uninterrupted = reference.run(list);

  const std::string path = temp_path("complete");
  std::remove(path.c_str());
  config.checkpoint_path = path;
  MeasurementCampaign first(web_, config);
  const auto initial = first.run(list);
  expect_observations_identical(uninterrupted, initial);

  // Every shard is on disk now: the rerun splices them all back in.
  MeasurementCampaign second(web_, config);
  const auto resumed = second.run(list);
  expect_observations_identical(uninterrupted, resumed);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ResumeFromKilledCampaignIsIdentical) {
  const auto list = build_list(10);
  CampaignConfig config = faulty_config();

  MeasurementCampaign reference(web_, config);
  const auto uninterrupted = reference.run(list);

  // Simulate a kill: keep the header, the first complete shard block,
  // and a torn fragment of the second.
  const std::string full_path = temp_path("full");
  std::remove(full_path.c_str());
  config.checkpoint_path = full_path;
  MeasurementCampaign writer(web_, config);
  writer.run(list);

  std::ifstream full(full_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(full, line);) lines.push_back(line);
  full.close();
  std::size_t first_end = 0;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].rfind("endshard,", 0) == 0) {
      first_end = i;
      break;
    }
  ASSERT_GT(first_end, 0u) << "campaign wrote no complete shard";
  ASSERT_GT(lines.size(), first_end + 2) << "need a second block to tear";

  const std::string torn_path = temp_path("torn");
  {
    std::ofstream torn(torn_path);
    for (std::size_t i = 0; i <= first_end + 1; ++i) torn << lines[i] << '\n';
    torn << lines[first_end + 2].substr(0, lines[first_end + 2].size() / 2);
  }

  config.checkpoint_path = torn_path;
  MeasurementCampaign resumer(web_, config);
  const auto resumed = resumer.run(list);
  expect_observations_identical(uninterrupted, resumed);

  std::remove(full_path.c_str());
  std::remove(torn_path.c_str());
}

TEST_F(CheckpointTest, MismatchedConfigIsRejected) {
  const auto list = build_list(6);
  CampaignConfig config = faulty_config();
  const std::string path = temp_path("digest");
  std::remove(path.c_str());
  config.checkpoint_path = path;
  MeasurementCampaign first(web_, config);
  first.run(list);

  CampaignConfig changed = config;
  changed.seed = config.seed + 1;
  MeasurementCampaign second(web_, changed);
  EXPECT_THROW(second.run(list), std::runtime_error);

  // `jobs` is explicitly not part of the experiment fingerprint.
  CampaignConfig more_jobs = config;
  more_jobs.jobs = 8;
  MeasurementCampaign third(web_, more_jobs);
  const auto resumed = third.run(list);
  EXPECT_EQ(resumed.size(), list.sets.size());
  std::remove(path.c_str());
}

// extract_page_metrics hand-copies the §6.3 aggregation over memoized
// per-URL verdicts, and counts distinct hosts off the host memo's ids;
// both must agree with the reference detectors and HarLog run on the
// same HAR, whether the scratch memo is fresh or already warm.
TEST_F(MeasurementTest, DetectionMatchesReferenceDetectors) {
  net::LatencyModel latency;
  cdn::CdnHierarchy cdn(web_.cdn_registry(), latency);
  net::CachingResolver resolver({"local", 1, 6.0, net::Region::kNorthAmerica,
                                 1.0},
                                latency);
  browser::LoaderEnv env;
  env.latency = &latency;
  env.registry = &web_.cdn_registry();
  env.cdn = &cdn;
  env.resolver = &resolver;
  browser::PageLoader loader(env);
  const auto adblock = browser::AdBlocker::easylist_lite();
  const auto hb = browser::HbDetector::standard();
  const cdn::CdnDetector detector(web_.cdn_registry());

  core::DetectionScratch warm;
  std::uint64_t seed = 1;
  double tracking = 0.0, slots = 0.0;
  std::size_t hb_pages = 0;
  for (std::size_t rank = 1; rank <= 50; ++rank) {
    const auto& site = web_.site_by_rank(rank);
    std::vector<std::size_t> indices = {0, 0, 0};  // landing, repeated
    for (std::size_t i = 1; i <= std::min<std::size_t>(
                                    4, site.internal_page_count());
         ++i)
      indices.push_back(i);
    for (const std::size_t index : indices) {
      const auto page = site.page(index);
      const auto result = loader.load(page, util::Rng(seed++));
      const std::size_t blocked = adblock.count_blocked(result.har);
      const browser::HbResult reference = hb.analyze(result.har);
      core::DetectionScratch fresh;
      for (core::DetectionScratch* scratch : {&fresh, &warm}) {
        const PageMetrics m = core::extract_page_metrics(
            page, result, *scratch, adblock, hb, detector, 64, nullptr);
        EXPECT_EQ(m.tracking_requests, static_cast<double>(blocked))
            << page.url.str();
        EXPECT_EQ(m.header_bidding, reference.header_bidding)
            << page.url.str();
        EXPECT_EQ(m.hb_ad_slots, static_cast<double>(reference.ad_slots))
            << page.url.str();
        EXPECT_EQ(m.unique_domains,
                  static_cast<double>(result.har.unique_domains()))
            << page.url.str();
      }
      tracking += static_cast<double>(blocked);
      slots += static_cast<double>(reference.ad_slots);
      hb_pages += reference.header_bidding ? 1 : 0;
    }
  }
  // The sample must exercise every verdict, or the comparison is vacuous.
  EXPECT_GT(tracking, 0.0);
  EXPECT_GT(slots, 0.0);
  EXPECT_GT(hb_pages, 0u);
  EXPECT_GT(warm.urls.size(), 0u);
}

TEST_F(MeasurementTest, TrackerDetectionAgreesWithGroundTruthDirection) {
  // The EasyList-style matcher must broadly find the tracking objects
  // the generator planted (detection is URL-pattern-based, so exact
  // equality is not expected).
  const auto list = build_list(10);
  CampaignConfig config;
  config.landing_loads = 1;
  MeasurementCampaign campaign(web_, config);
  const auto sites = campaign.run(list);
  double detected = 0.0, truth = 0.0;
  for (const auto& observation : sites) {
    const auto* site = web_.find_site(observation.domain);
    detected += observation.landing.tracking_requests;
    truth += static_cast<double>(site->page(0).tracking_requests());
  }
  if (truth == 0.0) GTEST_SKIP() << "no trackers in sample";
  EXPECT_GT(detected, truth * 0.6);
  EXPECT_LT(detected, truth * 1.7);
}

}  // namespace
