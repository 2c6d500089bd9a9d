// Multi-vantage campaign engine: profile grammar, per-vantage config
// derivation, byte-identity contracts (single vantage == historical
// campaign; kill + resume == uninterrupted run), vantage-granular
// checkpoint serialization, cross-vantage disagreement analysis, the
// multi-vantage report, and the CLI-shared fail-fast validators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analyses.h"
#include "core/hispar.h"
#include "core/journal.h"
#include "core/measurement.h"
#include "core/parallel.h"
#include "core/serialization.h"
#include "core/vantage.h"
#include "net/vantage_profile.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace {

using namespace hispar;

// --- VantageProfile spec grammar ---

TEST(VantageProfile, DefaultIsTheHomeVantage) {
  const auto vantages = net::VantageProfile::default_vantages(1);
  ASSERT_EQ(vantages.size(), 1u);
  const net::VantageProfile& home = vantages[0];
  EXPECT_EQ(home.name, "us-home");
  EXPECT_EQ(home.region, net::Region::kNorthAmerica);
  // The resolver must be exactly the default-constructed config the
  // single-vantage campaign hardcodes — this is what makes a 1-vantage
  // campaign byte-identical to the historical one.
  const net::ResolverConfig defaults;
  EXPECT_EQ(home.resolver.name, defaults.name);
  EXPECT_EQ(home.resolver.cache_shards, defaults.cache_shards);
  EXPECT_EQ(home.resolver.client_rtt_ms, defaults.client_rtt_ms);
  EXPECT_FALSE(home.use_doh);
  EXPECT_FALSE(home.edge_pin.has_value());
  EXPECT_EQ(home.fault_scale, 1.0);
}

TEST(VantageProfile, ParseAppliesEveryKey) {
  const auto profile = net::VantageProfile::parse(
      "tokyo:region=as:resolver=public:doh=1:edge=na:access_ms=9.5:"
      "bandwidth=3000:faults=2.5");
  EXPECT_EQ(profile.name, "tokyo");
  EXPECT_EQ(profile.region, net::Region::kAsia);
  EXPECT_EQ(profile.resolver.name, "public");
  EXPECT_GT(profile.resolver.cache_shards, 1);
  EXPECT_EQ(profile.resolver.resolver_region, net::Region::kAsia);
  EXPECT_TRUE(profile.use_doh);
  ASSERT_TRUE(profile.edge_pin.has_value());
  EXPECT_EQ(*profile.edge_pin, net::Region::kNorthAmerica);
  EXPECT_EQ(profile.latency.access_ms, 9.5);
  EXPECT_EQ(profile.latency.bandwidth_bytes_per_ms, 3000.0);
  EXPECT_EQ(profile.fault_scale, 2.5);
}

TEST(VantageProfile, StrRoundTripsThroughParse) {
  const char* specs[] = {
      "us-home",
      "eu-isp:region=eu",
      "as-public-doh:region=as:resolver=public:doh=1",
      "sa-lossy:region=sa:resolver=public:access_ms=12:faults=2",
      "oc-pinned:region=oc:edge=na",
  };
  for (const char* spec : specs) {
    const auto profile = net::VantageProfile::parse(spec);
    const auto reparsed = net::VantageProfile::parse(profile.str());
    EXPECT_EQ(reparsed.str(), profile.str()) << spec;
    EXPECT_EQ(reparsed.name, profile.name);
    EXPECT_EQ(reparsed.region, profile.region);
    EXPECT_EQ(reparsed.use_doh, profile.use_doh);
    EXPECT_EQ(reparsed.edge_pin, profile.edge_pin);
    EXPECT_EQ(reparsed.fault_scale, profile.fault_scale);
  }
}

TEST(VantageProfile, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(net::VantageProfile::parse(""), std::invalid_argument);
  EXPECT_THROW(net::VantageProfile::parse("region=eu"),
               std::invalid_argument);  // name must come first
  EXPECT_THROW(net::VantageProfile::parse("v:nope=1"), std::invalid_argument);
  EXPECT_THROW(net::VantageProfile::parse("v:region=mars"),
               std::invalid_argument);
  EXPECT_THROW(net::VantageProfile::parse("v:doh=maybe"),
               std::invalid_argument);
  EXPECT_THROW(net::VantageProfile::parse("v:resolver=quad9"),
               std::invalid_argument);
  EXPECT_THROW(net::VantageProfile::parse("v:access_ms=-1"),
               std::invalid_argument);
  EXPECT_THROW(net::VantageProfile::parse("v:bandwidth=0"),
               std::invalid_argument);
  EXPECT_THROW(net::VantageProfile::parse("v:faults=-0.5"),
               std::invalid_argument);
  EXPECT_THROW(net::VantageProfile::parse_list(""), std::invalid_argument);
}

TEST(VantageProfile, ParseListSplitsOnSemicolons) {
  const auto profiles =
      net::VantageProfile::parse_list("a;b:region=eu;c:doh=1");
  ASSERT_EQ(profiles.size(), 3u);
  EXPECT_EQ(profiles[0].name, "a");
  EXPECT_EQ(profiles[1].region, net::Region::kEurope);
  EXPECT_TRUE(profiles[2].use_doh);
}

TEST(VantageProfile, DefaultVantagesCycleWithSuffixedNames) {
  const auto vantages = net::VantageProfile::default_vantages(7);
  ASSERT_EQ(vantages.size(), 7u);
  EXPECT_EQ(vantages[0].name, "us-home");
  EXPECT_EQ(vantages[4].name, "oc-pinned");
  EXPECT_EQ(vantages[5].name, "us-home-2");
  EXPECT_EQ(vantages[6].name, "eu-isp-2");
  EXPECT_EQ(vantages[6].region, vantages[1].region);
}

// --- Fault-profile scaling ---

TEST(ScaleFaultProfile, ScalesWithinTheTotalRateBudget) {
  net::FaultProfile base;
  base.dns_servfail = 0.1;
  base.http_5xx = 0.3;
  const auto doubled = core::scale_fault_profile(base, 2.0);
  EXPECT_DOUBLE_EQ(doubled.dns_servfail, 0.2);
  EXPECT_DOUBLE_EQ(doubled.http_5xx, 0.6);
  const auto off = core::scale_fault_profile(base, 0.0);
  EXPECT_FALSE(off.enabled());
  const auto same = core::scale_fault_profile(base, 1.0);
  EXPECT_DOUBLE_EQ(same.dns_servfail, base.dns_servfail);
  EXPECT_DOUBLE_EQ(same.http_5xx, base.http_5xx);
}

TEST(ScaleFaultProfile, RenormalizesWhenScaledTotalExceedsOne) {
  // Per-rate clamping alone used to build profiles whose *total* rate
  // exceeded 1 — the invariant FaultProfile::parse rejects. The scaled
  // profile must stay parseable, with relative rates preserved.
  net::FaultProfile base;
  base.dns_servfail = 0.2;
  base.http_5xx = 0.6;
  const auto doubled = core::scale_fault_profile(base, 2.0);
  EXPECT_LE(doubled.total_rate(), 1.0);
  EXPECT_NEAR(doubled.total_rate(), 1.0, 1e-9);
  // http_5xx clamps to 1.0 and dns_servfail to 0.4 before the
  // renormalization, so the surviving ratio is 1.0 : 0.4.
  EXPECT_NEAR(doubled.http_5xx / doubled.dns_servfail, 2.5, 1e-9);
  EXPECT_NO_THROW(net::FaultProfile::parse(doubled.str()));
}

// --- CLI-shared fail-fast validators (regressions for the flag bugs) ---

TEST(ResolveCheckpointPath, BareResumeFailsFast) {
  // A bare `--resume` used to fall through with an empty path and
  // silently run without checkpointing.
  EXPECT_THROW(core::resolve_checkpoint_path("measure", "", true, ""),
               std::invalid_argument);
}

TEST(ResolveCheckpointPath, MissingResumeFileFailsFast) {
  EXPECT_THROW(core::resolve_checkpoint_path("measure", "", true,
                                             "/nonexistent/ckpt.txt"),
               std::invalid_argument);
}

TEST(ResolveCheckpointPath, ConflictingPairFailsFast) {
  const std::string path = ::testing::TempDir() + "vantage_resolve_ckpt.txt";
  std::ofstream(path) << "x\n";
  EXPECT_THROW(core::resolve_checkpoint_path("measure", "other.txt", true,
                                             path),
               std::invalid_argument);
  EXPECT_EQ(core::resolve_checkpoint_path("measure", path, true, path), path);
  EXPECT_EQ(core::resolve_checkpoint_path("measure", "", true, path), path);
  std::remove(path.c_str());
}

TEST(ResolveCheckpointPath, PlainCheckpointPassesThrough) {
  EXPECT_EQ(core::resolve_checkpoint_path("measure", "new.txt", false, ""),
            "new.txt");
  EXPECT_EQ(core::resolve_checkpoint_path("measure", "", false, ""), "");
}

TEST(ValidateShardCount, RejectsMoreShardsThanSites) {
  // `--shards 64` over a 10-site list used to run 54 empty shards
  // silently; the partition is degenerate and now fails fast.
  EXPECT_THROW(core::validate_shard_count("measure", 11, 10),
               std::invalid_argument);
  EXPECT_NO_THROW(core::validate_shard_count("measure", 10, 10));
  EXPECT_NO_THROW(core::validate_shard_count("measure", 1, 10));
}

// --- Cross-vantage disagreement over hand-built observations ---

core::SiteObservation make_site(const std::string& domain, double landing,
                                std::vector<double> internals) {
  core::SiteObservation site;
  site.domain = domain;
  site.bootstrap_rank = 1;
  site.landing.bytes = landing;
  site.landing.plt_ms = landing;
  for (double value : internals) {
    core::PageMetrics metrics;
    metrics.bytes = value;
    metrics.plt_ms = value;
    site.internals.push_back(metrics);
  }
  return site;
}

TEST(VantageDisagreement, DetectsSignFlips) {
  // Vantage 0 sees landing > internal (delta +5); vantage 1 sees the
  // reverse (delta -5): a sign flip on every delta-bearing metric.
  const std::vector<std::vector<core::SiteObservation>> per_vantage = {
      {make_site("a.com", 15.0, {10.0})},
      {make_site("a.com", 5.0, {10.0})},
  };
  const auto disagreement = core::vantage_disagreement(per_vantage);
  EXPECT_EQ(disagreement.vantages, 2u);
  EXPECT_EQ(disagreement.sites_total, 1u);
  EXPECT_EQ(disagreement.sites_compared, 1u);
  ASSERT_FALSE(disagreement.metrics.empty());
  for (const auto& line : disagreement.metrics) {
    if (line.metric == "bytes" || line.metric == "plt_ms") {
      EXPECT_DOUBLE_EQ(line.median_spread, 10.0) << line.metric;
      EXPECT_DOUBLE_EQ(line.max_spread, 10.0) << line.metric;
      EXPECT_DOUBLE_EQ(line.sign_flip_fraction, 1.0) << line.metric;
    } else {
      EXPECT_DOUBLE_EQ(line.median_spread, 0.0) << line.metric;
      EXPECT_DOUBLE_EQ(line.sign_flip_fraction, 0.0) << line.metric;
    }
  }
}

TEST(VantageDisagreement, SingleVantageHasZeroSpread) {
  const std::vector<std::vector<core::SiteObservation>> per_vantage = {
      {make_site("a.com", 15.0, {10.0}), make_site("b.com", 3.0, {9.0})},
  };
  const auto disagreement = core::vantage_disagreement(per_vantage);
  EXPECT_EQ(disagreement.vantages, 1u);
  EXPECT_EQ(disagreement.sites_compared, 2u);
  for (const auto& line : disagreement.metrics) {
    EXPECT_DOUBLE_EQ(line.median_spread, 0.0);
    EXPECT_DOUBLE_EQ(line.sign_flip_fraction, 0.0);
  }
}

TEST(VantageDisagreement, SiteMustBeUsableEverywhereToCompare) {
  auto quarantined = make_site("a.com", 1.0, {});
  quarantined.quarantined = true;
  const std::vector<std::vector<core::SiteObservation>> per_vantage = {
      {make_site("a.com", 15.0, {10.0})},
      {quarantined},
  };
  const auto disagreement = core::vantage_disagreement(per_vantage);
  EXPECT_EQ(disagreement.sites_compared, 0u);
  // No compared sites: median spread is NaN by the documented
  // util::stats empty-input policy, flips default to zero.
  for (const auto& line : disagreement.metrics) {
    EXPECT_TRUE(std::isnan(line.median_spread)) << line.metric;
    EXPECT_DOUBLE_EQ(line.sign_flip_fraction, 0.0);
  }
}

TEST(VantageDisagreement, MismatchedListsThrow) {
  const std::vector<std::vector<core::SiteObservation>> per_vantage = {
      {make_site("a.com", 1.0, {2.0})},
      {make_site("a.com", 1.0, {2.0}), make_site("b.com", 1.0, {2.0})},
  };
  EXPECT_THROW(core::vantage_disagreement(per_vantage),
               std::invalid_argument);
  EXPECT_THROW(core::vantage_disagreement({}), std::invalid_argument);
}

TEST(VantageConsensusCsv, OneRowPerEverywhereUsableSite) {
  const std::vector<std::vector<core::SiteObservation>> per_vantage = {
      {make_site("a.com", 15.0, {10.0}), make_site("b.com", 8.0, {10.0})},
      {make_site("a.com", 5.0, {10.0}), make_site("b.com", 12.0, {10.0})},
  };
  std::ostringstream out;
  core::write_vantage_consensus_csv(out, per_vantage);
  const std::string csv = out.str();
  EXPECT_EQ(csv.rfind("domain,rank,vantages,bytes_delta_median,"
                      "bytes_spread,bytes_sign_consistent,",
                      0),
            0u);
  EXPECT_NE(csv.find("\na.com,1,2,"), std::string::npos);
  EXPECT_NE(csv.find("\nb.com,1,2,"), std::string::npos);
  // a.com flips sign on bytes (delta +5 vs -5) -> sign_consistent 0.
  EXPECT_NE(csv.find("a.com,1,2,0,10,0"), std::string::npos);
}

// --- Report assembly and rendering ---

TEST(VantageReport, NullSpreadCellsWhenNothingCompares) {
  obs::VantageReport report;
  report.vantages = 2;
  report.sites_total = 1;
  report.sites_compared = 0;
  obs::VantageReport::MetricLine line;
  line.metric = "bytes";
  line.has_spread = false;
  report.metric_lines.push_back(line);
  std::ostringstream out;
  obs::write_vantage_report_json(out, report);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"schema\":\"hispar-vantage-report-v1\"", 0), 0u);
  EXPECT_NE(json.find("\"median_spread\":null"), std::string::npos);
  EXPECT_NE(json.find("\"max_spread\":null"), std::string::npos);
}

// --- Vantage checkpoint serialization ---

TEST(VantageCheckpoint, RoundTripsBlocksAndTelemetry) {
  core::SiteObservation site = make_site("a.com", 15.0, {10.0, 11.0});
  site.category = web::SiteCategory::kNews;
  core::FetchOutcome outcome;
  outcome.page_index = 0;
  outcome.load_ordinal = 2;
  site.outcomes.push_back(outcome);

  obs::ShardTelemetry telemetry;
  telemetry.metrics.counter("x") = 7;
  telemetry.spans_dropped = 3;

  std::ostringstream out;
  core::write_checkpoint_header(out, core::kVantageCheckpointTag,
                                0xabcdefull);
  core::append_vantage_block(out, 0, {site}, &telemetry);
  core::append_vantage_block(out, 1, {site}, nullptr);

  std::istringstream in(out.str());
  const auto checkpoint = core::read_vantage_checkpoint(in);
  EXPECT_EQ(checkpoint.config_digest, 0xabcdefull);
  ASSERT_EQ(checkpoint.vantages.size(), 2u);
  EXPECT_EQ(checkpoint.vantages[0].vantage, 0u);
  EXPECT_TRUE(checkpoint.vantages[0].has_telemetry);
  EXPECT_EQ(checkpoint.vantages[0].telemetry.spans_dropped, 3u);
  EXPECT_FALSE(checkpoint.vantages[1].has_telemetry);
  ASSERT_EQ(checkpoint.vantages[1].observations.size(), 1u);
  const auto& restored = checkpoint.vantages[1].observations[0].second;
  EXPECT_EQ(restored.domain, "a.com");
  EXPECT_EQ(restored.internals.size(), 2u);
  ASSERT_EQ(restored.outcomes.size(), 1u);
  EXPECT_EQ(restored.outcomes[0].load_ordinal, 2);

  // Re-serializing the parsed state reproduces the original bytes —
  // the property resume depends on.
  std::ostringstream again;
  core::write_checkpoint_header(again, core::kVantageCheckpointTag,
                                checkpoint.config_digest);
  for (const auto& block : checkpoint.vantages) {
    std::vector<core::SiteObservation> observations;
    for (const auto& [position, observation] : block.observations)
      observations.push_back(observation);
    core::append_vantage_block(
        again, block.vantage, observations,
        block.has_telemetry ? &block.telemetry : nullptr);
  }
  EXPECT_EQ(again.str(), out.str());
}

TEST(VantageCheckpoint, TornTailIsDiscarded) {
  const core::SiteObservation site = make_site("a.com", 15.0, {10.0});
  std::ostringstream out;
  core::write_checkpoint_header(out, core::kVantageCheckpointTag, 1);
  core::append_vantage_block(out, 0, {site}, nullptr);
  std::string bytes = out.str();
  // Simulate a kill mid-append: a second block with its tail cut off.
  std::ostringstream torn;
  core::append_vantage_block(torn, 1, {site}, nullptr);
  bytes += torn.str().substr(0, torn.str().size() / 2);

  std::istringstream in(bytes);
  const auto checkpoint = core::read_vantage_checkpoint(in);
  ASSERT_EQ(checkpoint.vantages.size(), 1u);
  EXPECT_EQ(checkpoint.vantages[0].vantage, 0u);

  // Malformed *complete* records, by contrast, throw.
  std::istringstream bad("hispar-vantage,v1,zzz\n");
  EXPECT_THROW(core::read_vantage_checkpoint(bad), std::runtime_error);
  std::istringstream wrong_header("hispar-checkpoint,v1,1\n");
  EXPECT_THROW(core::read_vantage_checkpoint(wrong_header),
               std::runtime_error);
}

// --- The campaign engine itself ---

class VantageCampaignTest : public ::testing::Test {
 protected:
  VantageCampaignTest()
      : web_({150, 37, 300, false}), toplists_(web_), engine_(web_) {
    core::HisparBuilder builder(web_, toplists_, engine_);
    core::HisparConfig config;
    config.target_sites = 10;
    config.urls_per_site = 6;
    config.min_internal_results = 4;
    list_ = builder.build(config, 0);
  }

  core::CampaignConfig base_config(std::size_t jobs = 1) const {
    core::CampaignConfig config;
    config.landing_loads = 3;
    config.jobs = jobs;
    config.shards = 4;
    config.observability.enabled = true;
    return config;
  }

  struct Artifacts {
    std::string csv;      // all vantages, concatenated in vantage order
    std::string metrics;
    std::string trace;
  };

  Artifacts run_vantages(std::size_t vantages, std::size_t jobs,
                         const std::string& checkpoint_path = "") {
    core::VantageCampaignConfig config;
    config.base = base_config(jobs);
    config.profiles = net::VantageProfile::default_vantages(vantages);
    config.checkpoint_path = checkpoint_path;
    core::VantageCampaign campaign(web_, config);
    const auto result = campaign.run(list_);

    Artifacts artifacts;
    for (const auto& observations : result.observations) {
      std::ostringstream csv;
      core::write_measure_csv(csv, observations);
      artifacts.csv += csv.str();
    }
    std::ostringstream metrics;
    campaign.telemetry().metrics.write_json(metrics);
    artifacts.metrics = metrics.str();
    std::ostringstream trace;
    obs::write_chrome_trace(trace, campaign.telemetry().spans);
    artifacts.trace = trace.str();
    return artifacts;
  }

  web::SyntheticWeb web_;
  toplist::TopListFactory toplists_;
  search::SearchEngine engine_;
  core::HisparList list_;
};

TEST_F(VantageCampaignTest, SingleVantageIsByteIdenticalToPlainCampaign) {
  core::MeasurementCampaign plain(web_, base_config());
  const auto sites = plain.run(list_);
  std::ostringstream plain_csv;
  core::write_measure_csv(plain_csv, sites);
  std::ostringstream plain_metrics;
  plain.telemetry().metrics.write_json(plain_metrics);
  std::ostringstream plain_trace;
  obs::write_chrome_trace(plain_trace, plain.telemetry().spans);

  const Artifacts vantage = run_vantages(1, 1);
  EXPECT_EQ(vantage.csv, plain_csv.str());
  EXPECT_EQ(vantage.metrics, plain_metrics.str());
  EXPECT_EQ(vantage.trace, plain_trace.str());
}

TEST_F(VantageCampaignTest, VantageConfigDerivation) {
  core::VantageCampaignConfig config;
  config.base = base_config();
  config.base.fault_profile = net::FaultProfile::uniform(0.1);
  config.profiles = net::VantageProfile::default_vantages(4);
  core::VantageCampaign campaign(web_, config);

  // Vantage 0 is the base campaign (same seed, same substrate).
  const auto home = campaign.vantage_config(0);
  EXPECT_EQ(home.seed, config.base.seed);
  EXPECT_EQ(home.vantage, net::Region::kNorthAmerica);
  EXPECT_FALSE(home.use_doh);

  // Vantage 2 (as-public-doh) gets its profile's substrate and a seed
  // forked by vantage index.
  const auto asia = campaign.vantage_config(2);
  EXPECT_EQ(asia.vantage, net::Region::kAsia);
  EXPECT_TRUE(asia.use_doh);
  EXPECT_GT(asia.resolver.cache_shards, 1);
  EXPECT_NE(asia.seed, config.base.seed);

  // Vantage 3 (sa-lossy, faults=2) doubles the base fault rates —
  // renormalized back under the total-rate budget, because seven rates
  // of 0.2 would sum to 1.4. Relative rates stay uniform.
  const auto lossy = campaign.vantage_config(3);
  EXPECT_GT(lossy.fault_profile.http_5xx, config.base.fault_profile.http_5xx);
  EXPECT_DOUBLE_EQ(lossy.fault_profile.http_5xx,
                   lossy.fault_profile.dns_timeout);
  EXPECT_LE(lossy.fault_profile.total_rate(), 1.0);
  EXPECT_NEAR(lossy.fault_profile.total_rate(), 1.0, 1e-9);

  EXPECT_THROW(campaign.vantage_config(4), std::invalid_argument);
}

TEST_F(VantageCampaignTest, JobsNeverChangeMultiVantageBytes) {
  const Artifacts serial = run_vantages(3, 1);
  const Artifacts threaded = run_vantages(3, 8);
  EXPECT_EQ(serial.csv, threaded.csv);
  EXPECT_EQ(serial.metrics, threaded.metrics);
  EXPECT_EQ(serial.trace, threaded.trace);
}

TEST_F(VantageCampaignTest, VantagesActuallyChangeTheBytes) {
  // Sanity inverse: different vantage points must disagree somewhere,
  // or the whole engine is a no-op.
  const Artifacts one = run_vantages(1, 1);
  const Artifacts three = run_vantages(3, 1);
  EXPECT_NE(one.csv, three.csv);
  // And vantage 0's slice of the 3-vantage run is the 1-vantage run.
  EXPECT_EQ(three.csv.substr(0, one.csv.size()), one.csv);
}

TEST_F(VantageCampaignTest, KillAndResumeIsByteIdentical) {
  const std::string path = ::testing::TempDir() + "vantage_resume_ckpt.txt";
  std::remove(path.c_str());
  const Artifacts uninterrupted = run_vantages(3, 2, path);

  // Tear the checkpoint mid-file (as a kill between flushes would) and
  // resume: the surviving complete blocks splice in, the rest re-runs,
  // and every artifact byte matches the uninterrupted run.
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();
  const std::string bytes = buffer.str();
  std::ofstream torn(path, std::ios::trunc);
  torn << bytes.substr(0, bytes.size() * 2 / 3);
  torn.close();

  const Artifacts resumed = run_vantages(3, 2, path);
  EXPECT_EQ(resumed.csv, uninterrupted.csv);
  EXPECT_EQ(resumed.metrics, uninterrupted.metrics);
  EXPECT_EQ(resumed.trace, uninterrupted.trace);

  // A fully-complete checkpoint resumes without re-running anything and
  // still reproduces the bytes.
  const Artifacts replayed = run_vantages(3, 2, path);
  EXPECT_EQ(replayed.csv, uninterrupted.csv);
  EXPECT_EQ(replayed.metrics, uninterrupted.metrics);
  std::remove(path.c_str());
}

TEST_F(VantageCampaignTest, MismatchedCheckpointIsRejected) {
  const std::string path = ::testing::TempDir() + "vantage_mismatch_ckpt.txt";
  std::remove(path.c_str());
  run_vantages(2, 1, path);
  // Same file, different profile set: the digest guard must refuse.
  core::VantageCampaignConfig config;
  config.base = base_config();
  config.profiles = net::VantageProfile::default_vantages(3);
  config.checkpoint_path = path;
  core::VantageCampaign campaign(web_, config);
  EXPECT_THROW(campaign.run(list_), std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(VantageCampaignTest, ReportCountsEveryVantage) {
  core::VantageCampaignConfig config;
  config.base = base_config();
  config.profiles = net::VantageProfile::default_vantages(2);
  core::VantageCampaign campaign(web_, config);
  const auto result = campaign.run(list_);
  const auto report = core::build_vantage_report(
      result.observations, config.profiles, campaign.telemetry());
  EXPECT_EQ(report.vantages, 2u);
  EXPECT_EQ(report.sites_total, list_.sets.size());
  ASSERT_EQ(report.vantage_lines.size(), 2u);
  EXPECT_EQ(report.vantage_lines[0].name, "us-home");
  EXPECT_EQ(report.vantage_lines[0].region, "north-america");
  EXPECT_EQ(report.vantage_lines[1].name, "eu-isp");
  EXPECT_EQ(report.vantage_lines[1].region, "europe");
  EXPECT_TRUE(report.telemetry);
  EXPECT_FALSE(report.metric_lines.empty());

  const std::string summary = obs::vantage_summary_line(report);
  EXPECT_NE(summary.find("2 vantage points"), std::string::npos);

  EXPECT_THROW(core::build_vantage_report(result.observations, {},
                                          campaign.telemetry()),
               std::invalid_argument);
}

TEST(VantageCheckpoint, VshardBlocksRoundTripAlongsideVantageBlocks) {
  // The 2-D scheduler's durable unit: (vantage, shard) cell blocks mix
  // with whole-vantage blocks in one file, and both round-trip.
  std::vector<core::SiteObservation> observations = {
      make_site("a.com", 15.0, {10.0}), make_site("b.com", 8.0, {9.0})};
  obs::ShardTelemetry telemetry;
  telemetry.metrics.counter("fetches") = 4;

  std::ostringstream out;
  core::write_checkpoint_header(out, core::kVantageCheckpointTag, 0x1234ull);
  core::append_vantage_block(out, 0, observations, nullptr);
  core::append_vantage_shard_block(out, 1, 2, {1}, observations, &telemetry);
  core::append_vantage_shard_block(out, 1, 3, {0}, observations, nullptr);

  std::istringstream in(out.str());
  const auto checkpoint = core::read_vantage_checkpoint(in);
  EXPECT_EQ(checkpoint.config_digest, 0x1234ull);
  ASSERT_EQ(checkpoint.vantages.size(), 1u);
  ASSERT_EQ(checkpoint.shards.size(), 2u);
  EXPECT_EQ(checkpoint.shards[0].vantage, 1u);
  EXPECT_EQ(checkpoint.shards[0].shard, 2u);
  ASSERT_EQ(checkpoint.shards[0].observations.size(), 1u);
  EXPECT_EQ(checkpoint.shards[0].observations[0].first, 1u);
  EXPECT_EQ(checkpoint.shards[0].observations[0].second.domain, "b.com");
  EXPECT_TRUE(checkpoint.shards[0].has_telemetry);
  EXPECT_FALSE(checkpoint.shards[1].has_telemetry);
  EXPECT_EQ(checkpoint.shards[1].shard, 3u);

  // A torn cell block (kill mid-append) is discarded like a torn
  // vantage block.
  std::ostringstream torn;
  core::append_vantage_shard_block(torn, 2, 0, {0}, observations, nullptr);
  std::istringstream torn_in(out.str() +
                             torn.str().substr(0, torn.str().size() / 2));
  const auto survived = core::read_vantage_checkpoint(torn_in);
  EXPECT_EQ(survived.vantages.size(), 1u);
  EXPECT_EQ(survived.shards.size(), 2u);
}

// --- Checkpoint rewrite atomicity (the std::ios::trunc kill window) ---

TEST(ReplaceFileAtomically, KillBeforeRenameLeavesTheOriginalIntact) {
  const std::string path = ::testing::TempDir() + "atomic_rewrite.txt";
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << "durable blocks\n";
  }
  // A kill between the temp write and the rename leaves exactly this
  // state: a partial temp file next to the untouched original. The old
  // truncate-in-place rewrite instead left the *original* partial.
  {
    std::ofstream tmp(path + ".tmp");
    tmp << "partial rewr";
  }
  std::ifstream original(path);
  std::string line;
  ASSERT_TRUE(std::getline(original, line));
  EXPECT_EQ(line, "durable blocks");
  original.close();

  // The next rewrite overwrites the stale temp and lands atomically.
  core::replace_file_atomically(
      "vantage campaign", path,
      [](std::ostream& out) { out << "rewritten\n"; });
  std::ifstream rewritten(path);
  ASSERT_TRUE(std::getline(rewritten, line));
  EXPECT_EQ(line, "rewritten");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST_F(VantageCampaignTest, ResumeSurvivesAStaleTempFromAKilledRewrite) {
  const std::string path = ::testing::TempDir() + "vantage_atomic_ckpt.txt";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  const Artifacts uninterrupted = run_vantages(2, 2, path);

  // Simulate a run killed twice: once mid-append (torn tail) and once
  // mid-rewrite on the following resume (stale temp file). The durable
  // blocks in the original file must survive both.
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();
  const std::string bytes = buffer.str();
  {
    std::ofstream torn(path, std::ios::trunc);
    torn << bytes.substr(0, bytes.size() * 2 / 3);
  }
  {
    std::ofstream stale(path + ".tmp");
    stale << "hispar-vantage,v1,0\ngarbage from a killed rewrite";
  }

  const Artifacts resumed = run_vantages(2, 2, path);
  EXPECT_EQ(resumed.csv, uninterrupted.csv);
  EXPECT_EQ(resumed.metrics, uninterrupted.metrics);
  EXPECT_EQ(resumed.trace, uninterrupted.trace);
  // The completed run's compaction renamed the temp away.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST_F(VantageCampaignTest, CellGranularCheckpointResumesByteIdentically) {
  // Hand-build the file a run killed mid-flight leaves behind: a
  // header plus two completed (vantage 0, shard) cells. The resume must
  // splice them in and reproduce the uninterrupted artifacts.
  const std::string path = ::testing::TempDir() + "vantage_cell_ckpt.txt";
  std::remove(path.c_str());
  const Artifacts uninterrupted = run_vantages(2, 1);

  core::VantageCampaignConfig config;
  config.base = base_config();
  config.profiles = net::VantageProfile::default_vantages(2);
  core::VantageCampaign campaign(web_, config);
  core::MeasurementCampaign inner(web_, campaign.vantage_config(0));
  const auto shards = core::shard_indices(list_, config.base.shards);
  std::vector<core::SiteObservation> observations(list_.sets.size());
  {
    std::ofstream out(path);
    core::write_checkpoint_header(out, core::kVantageCheckpointTag,
                                  campaign.checkpoint_digest(list_));
    for (std::size_t s = 0; s < 2; ++s) {
      const auto cell = inner.run_one_shard(s, list_, shards[s], observations);
      core::append_vantage_shard_block(
          out, 0, s, shards[s], observations,
          cell.telemetry.empty() ? nullptr : &cell.telemetry);
    }
  }

  const Artifacts resumed = run_vantages(2, 2, path);
  EXPECT_EQ(resumed.csv, uninterrupted.csv);
  EXPECT_EQ(resumed.metrics, uninterrupted.metrics);
  EXPECT_EQ(resumed.trace, uninterrupted.trace);
  std::remove(path.c_str());
}

TEST_F(VantageCampaignTest, FinalCheckpointBytesAreJobsInvariant) {
  // The mid-run file orders cell blocks by completion, but the finished
  // file is compacted to whole-vantage blocks — byte-identical at any
  // --jobs, which is also what keeps it byte-compatible with files the
  // sequential engine wrote (the golden digest pins that layout).
  const std::string serial_path =
      ::testing::TempDir() + "vantage_jobs1_ckpt.txt";
  const std::string threaded_path =
      ::testing::TempDir() + "vantage_jobs8_ckpt.txt";
  std::remove(serial_path.c_str());
  std::remove(threaded_path.c_str());
  run_vantages(3, 1, serial_path);
  run_vantages(3, 8, threaded_path);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string serial = slurp(serial_path);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, slurp(threaded_path));
  std::remove(serial_path.c_str());
  std::remove(threaded_path.c_str());
}

// --- Vantage trace tid bands (the >= 1000 shard collision) ---

TEST(VantageTidStride, WidensWithTheShardCount) {
  EXPECT_EQ(core::vantage_tid_stride(0), 1000u);
  EXPECT_EQ(core::vantage_tid_stride(4), 1000u);
  EXPECT_EQ(core::vantage_tid_stride(999), 1000u);
  // Shard 999's row is tid 1000 — the historical constant stride put
  // vantage 1's campaign row on the same tid.
  EXPECT_EQ(core::vantage_tid_stride(1000), 1001u);
  EXPECT_EQ(core::vantage_tid_stride(5000), 5001u);
}

TEST_F(VantageCampaignTest, TidBandsStayApartAtTheShardBoundary) {
  core::VantageCampaignConfig config;
  config.base = base_config();
  // The engine accepts shards > sites (the CLI validator rejects it,
  // the library runs the empty shards as no-ops), which is exactly how
  // a 1000-shard campaign reaches the old stride's collision.
  config.base.shards = 1000;
  config.profiles = net::VantageProfile::default_vantages(2);
  core::VantageCampaign campaign(web_, config);
  campaign.run(list_);

  const auto& v0 = campaign.vantage_telemetry()[0].spans;
  const auto& v1 = campaign.vantage_telemetry()[1].spans;
  const auto& merged = campaign.telemetry().spans;
  ASSERT_EQ(merged.size(), v0.size() + v1.size());
  std::uint32_t v0_max = 0;
  for (std::size_t i = 0; i < v0.size(); ++i)
    v0_max = std::max(v0_max, merged[i].tid);
  std::uint32_t v1_min = ~0u;
  for (std::size_t i = v0.size(); i < merged.size(); ++i)
    v1_min = std::min(v1_min, merged[i].tid);
  // Vantage 0's band tops out at tid 1000 (shard 999); vantage 1 must
  // start strictly above it. With the old constant stride of 1000,
  // v1_min was 1000 — inside vantage 0's band.
  EXPECT_EQ(v1_min, core::vantage_tid_stride(1000));
  EXPECT_LT(v0_max, v1_min);
}

TEST_F(VantageCampaignTest, MergedTelemetryKeepsVantageRowsApart) {
  core::VantageCampaignConfig config;
  config.base = base_config();
  config.profiles = net::VantageProfile::default_vantages(2);
  core::VantageCampaign campaign(web_, config);
  campaign.run(list_);
  std::ostringstream metrics;
  campaign.telemetry().metrics.write_json(metrics);
  // Gauges carry the vantage prefix; counters merge by summing.
  EXPECT_NE(metrics.str().find("vantage.0.shard.0.clock_end_s"),
            std::string::npos);
  EXPECT_NE(metrics.str().find("vantage.1.shard.0.clock_end_s"),
            std::string::npos);
  // Vantage 1's spans sit in their own Perfetto tid band.
  bool shifted = false;
  for (const auto& span : campaign.telemetry().spans)
    shifted = shifted || span.tid >= 1000;
  EXPECT_TRUE(shifted);
}

}  // namespace
