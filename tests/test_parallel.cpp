#include "core/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "core/measurement.h"

namespace {

using namespace hispar;
using core::CampaignConfig;
using core::MeasurementCampaign;
using core::PageMetrics;
using core::SiteObservation;

// Field-exact equality: the parallel runner promises bit-identical
// observations, so every comparison is == on doubles, not NEAR.
void expect_metrics_equal(const PageMetrics& a, const PageMetrics& b) {
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.objects, b.objects);
  EXPECT_EQ(a.plt_ms, b.plt_ms);
  EXPECT_EQ(a.on_load_ms, b.on_load_ms);
  EXPECT_EQ(a.speed_index_ms, b.speed_index_ms);
  EXPECT_EQ(a.noncacheable_objects, b.noncacheable_objects);
  EXPECT_EQ(a.cacheable_bytes_fraction, b.cacheable_bytes_fraction);
  EXPECT_EQ(a.cdn_bytes_fraction, b.cdn_bytes_fraction);
  EXPECT_EQ(a.x_cache_hits, b.x_cache_hits);
  EXPECT_EQ(a.x_cache_misses, b.x_cache_misses);
  EXPECT_EQ(a.mix_fractions, b.mix_fractions);
  EXPECT_EQ(a.depth_counts, b.depth_counts);
  EXPECT_EQ(a.unique_domains, b.unique_domains);
  EXPECT_EQ(a.hints_total, b.hints_total);
  EXPECT_EQ(a.handshakes, b.handshakes);
  EXPECT_EQ(a.handshake_time_ms, b.handshake_time_ms);
  EXPECT_EQ(a.dns_lookups, b.dns_lookups);
  EXPECT_EQ(a.dns_time_ms, b.dns_time_ms);
  EXPECT_EQ(a.is_http, b.is_http);
  EXPECT_EQ(a.mixed_content, b.mixed_content);
  EXPECT_EQ(a.tracking_requests, b.tracking_requests);
  EXPECT_EQ(a.header_bidding, b.header_bidding);
  EXPECT_EQ(a.hb_ad_slots, b.hb_ad_slots);
  EXPECT_EQ(a.third_parties, b.third_parties);
  EXPECT_EQ(a.wait_samples_ms, b.wait_samples_ms);
}

void expect_observations_equal(const std::vector<SiteObservation>& a,
                               const std::vector<SiteObservation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].domain, b[i].domain);
    EXPECT_EQ(a[i].bootstrap_rank, b[i].bootstrap_rank);
    EXPECT_EQ(a[i].category, b[i].category);
    expect_metrics_equal(a[i].landing, b[i].landing);
    ASSERT_EQ(a[i].internals.size(), b[i].internals.size());
    for (std::size_t j = 0; j < a[i].internals.size(); ++j)
      expect_metrics_equal(a[i].internals[j], b[i].internals[j]);
    // Failure accounting is part of the determinism contract too: the
    // same fetch must fail the same way at any job count.
    EXPECT_EQ(a[i].outcomes, b[i].outcomes);
    EXPECT_EQ(a[i].total_retries, b[i].total_retries);
    EXPECT_EQ(a[i].quarantined, b[i].quarantined);
  }
}

TEST(ShardOf, StableAndInRange) {
  for (std::size_t shards : {1u, 2u, 7u, 16u}) {
    EXPECT_LT(core::shard_of("example.com", shards), shards);
    // Deterministic: the same domain always lands on the same shard.
    EXPECT_EQ(core::shard_of("example.com", shards),
              core::shard_of("example.com", shards));
  }
  EXPECT_EQ(core::shard_of("anything.net", 1), 0u);
}

TEST(ShardIndices, PartitionPreservesOrder) {
  core::HisparList list;
  for (int i = 0; i < 50; ++i) {
    core::UrlSet set;
    set.domain = "site-" + std::to_string(i) + ".com";
    list.sets.push_back(set);
  }
  const auto shards = core::shard_indices(list, 8);
  ASSERT_EQ(shards.size(), 8u);
  std::vector<bool> seen(list.sets.size(), false);
  for (const auto& shard : shards) {
    for (std::size_t k = 0; k < shard.size(); ++k) {
      ASSERT_LT(shard[k], list.sets.size());
      EXPECT_FALSE(seen[shard[k]]);  // disjoint
      seen[shard[k]] = true;
      if (k > 0) {
        EXPECT_LT(shard[k - 1], shard[k]);  // list order kept
      }
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);  // exhaustive
}

TEST(RetryBackoff, DoublesPerAttemptUpToThirtyTwoTimesTheBase) {
  // Page fetches and search queries share this one helper. The cap
  // holds for any attempt count, including ones where a shift by the
  // attempt would be undefined behaviour.
  const struct {
    int attempt;
    double scale;
  } table[] = {{0, 1.0},   {1, 2.0},   {5, 32.0},       {6, 32.0},
               {31, 32.0}, {62, 32.0}, {1000000, 32.0}};
  for (const auto& row : table) {
    EXPECT_EQ(core::retry_backoff_s(15.0, row.attempt), 15.0 * row.scale)
        << "attempt " << row.attempt;
    EXPECT_EQ(core::retry_backoff_s(30.0, row.attempt), 30.0 * row.scale)
        << "attempt " << row.attempt;
  }
  EXPECT_EQ(core::kMaxRetryBackoffScale, 32.0);
}

TEST(ForEachShard, RunsEveryShardOnceAtAnyJobCount) {
  for (std::size_t jobs : {0u, 1u, 3u, 16u}) {
    std::vector<std::atomic<int>> counts(11);
    core::for_each_unit(counts.size(), jobs,
                        [&](std::size_t shard) { ++counts[shard]; });
    for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
  }
}

TEST(ForEachShard, RethrowsLowestShardError) {
  try {
    core::for_each_unit(8, 4, [](std::size_t shard) {
      if (shard % 2 == 1)
        throw std::runtime_error("shard " + std::to_string(shard));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "shard 1");
  }
}

class ParallelCampaignTest : public ::testing::Test {
 protected:
  ParallelCampaignTest()
      : web_({300, 7, 300, false}), toplists_(web_), engine_(web_) {}

  core::HisparList build_list(std::size_t sites) {
    core::HisparBuilder builder(web_, toplists_, engine_);
    core::HisparConfig config;
    config.target_sites = sites;
    config.urls_per_site = 6;
    config.min_internal_results = 3;
    return builder.build(config, 0);
  }

  std::vector<SiteObservation> run_with_jobs(const core::HisparList& list,
                                             std::size_t jobs) {
    CampaignConfig config;
    config.landing_loads = 3;
    config.jobs = jobs;
    MeasurementCampaign campaign(web_, config);
    return campaign.run(list);
  }

  web::SyntheticWeb web_;
  toplist::TopListFactory toplists_;
  search::SearchEngine engine_;
};

TEST_F(ParallelCampaignTest, JobsDoNotChangeObservations) {
  // The acceptance bar for the sharded runner: a 60-site campaign yields
  // bit-identical SiteObservation vectors for jobs = 1, 2, 4 and 8.
  const auto list = build_list(60);
  ASSERT_GE(list.sets.size(), 50u);
  const auto serial = run_with_jobs(list, 1);
  for (std::size_t jobs : {2u, 4u, 8u})
    expect_observations_equal(serial, run_with_jobs(list, jobs));
}

TEST_F(ParallelCampaignTest, JobsDoNotChangeObservationsUnderFaults) {
  // Fault decisions are keyed by (seed, shard, domain, page, ordinal,
  // attempt), never by thread scheduling, so the bit-identical-for-any
  // --jobs guarantee must survive a lossy substrate — including which
  // loads failed, how often they were retried, and who got quarantined.
  const auto list = build_list(60);
  const auto run_faulty = [&](std::size_t jobs) {
    CampaignConfig config;
    config.landing_loads = 3;
    config.jobs = jobs;
    config.fault_profile = net::FaultProfile::uniform(0.04);
    // Retries shrug off low uniform rates (a root load only fails after
    // every loader AND campaign attempt fails), so strike DNS hard
    // enough that some sites genuinely fail and get quarantined.
    config.fault_profile.dns_timeout = 0.7;
    MeasurementCampaign campaign(web_, config);
    return campaign.run(list);
  };
  const auto serial = run_faulty(1);
  std::uint64_t failed = 0;
  for (const auto& site : serial)
    for (const auto& outcome : site.outcomes)
      failed += outcome.status == browser::LoadStatus::kFailed;
  EXPECT_GT(failed, 0u) << "fault rate too low to exercise the machinery";
  for (std::size_t jobs : {4u, 8u})
    expect_observations_equal(serial, run_faulty(jobs));
}

TEST_F(ParallelCampaignTest, HardwareJobsMatchSerial) {
  const auto list = build_list(20);
  expect_observations_equal(run_with_jobs(list, 1),
                            run_with_jobs(list, 0));  // 0 = all cores
}

TEST_F(ParallelCampaignTest, ShardCountDoesAffectObservations) {
  // Cache warmth is per shard (one shard = one vantage point), so the
  // shard count — unlike the job count — is part of the experiment
  // definition. Guard against silently coupling shards again.
  const auto list = build_list(40);
  CampaignConfig config;
  config.landing_loads = 2;
  config.shards = 1;
  MeasurementCampaign one(web_, config);
  config.shards = 8;
  MeasurementCampaign eight(web_, config);
  const auto a = one.run(list);
  const auto b = eight.run(list);
  ASSERT_EQ(a.size(), b.size());
  double delta = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    delta += std::abs(a[i].landing.dns_time_ms - b[i].landing.dns_time_ms) +
             std::abs(a[i].landing.plt_ms - b[i].landing.plt_ms);
  EXPECT_GT(delta, 0.0);
}

TEST_F(ParallelCampaignTest, UnknownDomainThrowsFromWorkers) {
  auto list = build_list(20);
  list.sets[7].domain = "churned-away.example";
  CampaignConfig config;
  config.landing_loads = 2;
  config.jobs = 4;
  MeasurementCampaign campaign(web_, config);
  EXPECT_THROW(campaign.run(list), std::logic_error);
}

}  // namespace
