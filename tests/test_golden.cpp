// Golden byte digests of the campaign's output artifacts.
//
// The performance pass (page materialization cache, string interning,
// pooled loader/median buffers) carries a hard contract: for any
// (seed, --jobs, fault profile), the campaign CSV, checkpoint stream
// and every observability artifact are byte-identical to the
// pre-optimization build. These tests pin that contract: they replicate
// the exact `hispar measure --universe 600 --sites 60 --loads 10
// --jobs 1 --seed 42` pipeline and compare an FNV-1a digest of every
// artifact's bytes against constants produced by the unoptimized build.
// Any change to the simulation's RNG draw order, detector semantics,
// float formatting or serialization shows up here as a digest mismatch.
//
// Regenerating the goldens (only when an intentional output change
// lands): run with HISPAR_UPDATE_GOLDENS=1 in the environment —
//
//   HISPAR_UPDATE_GOLDENS=1 ./build/tests/test_golden
//
// — and paste the digests it prints over the constants below. Document
// the intentional change in the commit message; these digests are the
// repo's record of "the bytes moved on purpose".
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/hispar.h"
#include "core/list_build.h"
#include "core/measurement.h"
#include "core/analyses.h"
#include "core/serialization.h"
#include "core/session.h"
#include "core/vantage.h"
#include "net/vantage_profile.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace {

using namespace hispar;

// Digests of the artifacts produced by the pre-optimization build for
// the pipeline below (identical flags through the CLI:
// `hispar measure --universe 600 --sites 60 --loads 10 --jobs 1
//  --seed 42 --out ... --metrics-out ... --trace-out ... --report-out
//  ... --checkpoint ...`).
constexpr std::uint64_t kGoldenCsv = 0x9b250531c4a0469cull;
constexpr std::uint64_t kGoldenMetrics = 0xf5cc2aeeac6c5978ull;
constexpr std::uint64_t kGoldenTrace = 0x7304770c93093d5eull;
constexpr std::uint64_t kGoldenReport = 0xcd78a00e79b9b969ull;
constexpr std::uint64_t kGoldenCheckpoint = 0x6d29018cb98c5b2bull;

struct Artifacts {
  std::string csv;
  std::string metrics;
  std::string trace;
  std::string report;
  std::string checkpoint;
};

// Replicates cmd_measure: the synthetic web / list construction uses
// the CLI defaults (urls 20, min-results 5, alexa bootstrap, week 0)
// so the artifacts match a real `hispar measure` run byte for byte.
Artifacts run_pipeline() {
  web::SyntheticWebConfig web_config;
  web_config.site_count = 600;
  web_config.seed = 42;
  web::SyntheticWeb web(web_config);
  toplist::TopListFactory toplists(web);
  search::SearchEngine engine(web);

  core::HisparBuilder builder(web, toplists, engine);
  core::HisparConfig list_config;
  list_config.name = "H60";
  list_config.target_sites = 60;
  list_config.urls_per_site = 20;
  list_config.min_internal_results = 5;
  const core::HisparList list = builder.build(list_config, /*week=*/0);

  const std::string checkpoint_path =
      ::testing::TempDir() + "hispar_golden_ckpt.txt";
  std::remove(checkpoint_path.c_str());

  core::CampaignConfig config;
  config.landing_loads = 10;
  config.jobs = 1;
  config.observability.enabled = true;
  config.checkpoint_path = checkpoint_path;
  core::MeasurementCampaign campaign(web, config);
  const auto sites = campaign.run(list);

  Artifacts artifacts;
  std::ostringstream csv;
  core::write_measure_csv(csv, sites);
  artifacts.csv = csv.str();

  std::ostringstream metrics;
  campaign.telemetry().metrics.write_json(metrics);
  artifacts.metrics = metrics.str();

  std::ostringstream trace;
  obs::write_chrome_trace(trace, campaign.telemetry().spans);
  artifacts.trace = trace.str();

  std::ostringstream report;
  obs::write_report_json(report,
                         core::build_run_report(sites, campaign.telemetry()));
  artifacts.report = report.str();

  std::ifstream checkpoint(checkpoint_path);
  std::ostringstream checkpoint_bytes;
  checkpoint_bytes << checkpoint.rdbuf();
  artifacts.checkpoint = checkpoint_bytes.str();
  std::remove(checkpoint_path.c_str());
  return artifacts;
}

TEST(GoldenArtifacts, CampaignOutputsMatchPreOptimizationBuild) {
  const Artifacts artifacts = run_pipeline();
  const std::uint64_t csv = util::fnv1a(artifacts.csv);
  const std::uint64_t metrics = util::fnv1a(artifacts.metrics);
  const std::uint64_t trace = util::fnv1a(artifacts.trace);
  const std::uint64_t report = util::fnv1a(artifacts.report);
  const std::uint64_t checkpoint = util::fnv1a(artifacts.checkpoint);

  if (std::getenv("HISPAR_UPDATE_GOLDENS") != nullptr) {
    std::printf("constexpr std::uint64_t kGoldenCsv = 0x%llxull;\n"
                "constexpr std::uint64_t kGoldenMetrics = 0x%llxull;\n"
                "constexpr std::uint64_t kGoldenTrace = 0x%llxull;\n"
                "constexpr std::uint64_t kGoldenReport = 0x%llxull;\n"
                "constexpr std::uint64_t kGoldenCheckpoint = 0x%llxull;\n",
                static_cast<unsigned long long>(csv),
                static_cast<unsigned long long>(metrics),
                static_cast<unsigned long long>(trace),
                static_cast<unsigned long long>(report),
                static_cast<unsigned long long>(checkpoint));
    GTEST_SKIP() << "HISPAR_UPDATE_GOLDENS set: printed digests, not "
                    "comparing";
  }

  EXPECT_EQ(csv, kGoldenCsv) << "campaign CSV bytes changed";
  EXPECT_EQ(metrics, kGoldenMetrics) << "metrics JSON bytes changed";
  EXPECT_EQ(trace, kGoldenTrace) << "trace JSON bytes changed";
  EXPECT_EQ(report, kGoldenReport) << "run report JSON bytes changed";
  EXPECT_EQ(checkpoint, kGoldenCheckpoint) << "checkpoint bytes changed";

  // Basic shape checks so a digest failure is debuggable: the header
  // row and one known site should be present whatever the digests say.
  EXPECT_EQ(artifacts.csv.rfind("domain,rank,page,", 0), 0u);
  EXPECT_NE(artifacts.csv.find("landing"), std::string::npos);
  EXPECT_NE(artifacts.metrics.find("\"hispar-metrics-v1\""),
            std::string::npos);
}

// --- List-build pipeline goldens ---
//
// Same discipline for `hispar build`: digests of every artifact of the
// pipeline `hispar build --universe 600 --seed 42 --sites 60 --weeks 3
// --jobs 1 --checkpoint ... --churn-out ... --ledger-out ...
// --metrics-out ... --trace-out ... --report-out ...`. The week-0 list
// is additionally compared byte-for-byte against the serial
// HisparBuilder, pinning the sharded campaign's serial-equivalence
// contract at golden scale.
constexpr std::uint64_t kGoldenListCsv = 0x6237b18025c54a97ull;
constexpr std::uint64_t kGoldenListChurn = 0xfedc045d65405467ull;
constexpr std::uint64_t kGoldenListLedger = 0x3232ea73cbc5485dull;
constexpr std::uint64_t kGoldenListMetrics = 0xdf0ba0e932547330ull;
constexpr std::uint64_t kGoldenListTrace = 0x7e5b3c67646d4b2bull;
constexpr std::uint64_t kGoldenListReport = 0xa7edd8e229c96968ull;
constexpr std::uint64_t kGoldenListCheckpoint = 0xb24e303197a98573ull;

struct ListBuildArtifacts {
  std::string lists_csv;  // all weeks, concatenated in week order
  std::string churn;
  std::string ledger;
  std::string metrics;
  std::string trace;
  std::string report;
  std::string checkpoint;
  std::string serial_week0_csv;  // serial HisparBuilder, same config
};

ListBuildArtifacts run_listbuild_pipeline() {
  web::SyntheticWebConfig web_config;
  web_config.site_count = 600;
  web_config.seed = 42;
  web::SyntheticWeb web(web_config);
  toplist::TopListFactory toplists(web);

  core::ListBuildConfig config;
  config.list.name = "H60";
  config.list.target_sites = 60;
  config.list.urls_per_site = 20;
  config.list.min_internal_results = 5;
  config.weeks = 3;
  config.jobs = 1;
  config.observability.enabled = true;
  const std::string checkpoint_path =
      ::testing::TempDir() + "hispar_golden_listbuild_ckpt.txt";
  std::remove(checkpoint_path.c_str());
  config.checkpoint_path = checkpoint_path;

  core::ListBuildCampaign campaign(web, toplists, config);
  const core::ListBuildResult result = campaign.run();

  ListBuildArtifacts artifacts;
  for (const auto& list : result.lists)
    artifacts.lists_csv += core::to_csv(list);
  std::ostringstream churn;
  core::write_churn_csv(churn, result.lists);
  artifacts.churn = churn.str();
  std::ostringstream ledger;
  core::write_cost_ledger_csv(ledger, result.weeks);
  artifacts.ledger = ledger.str();
  std::ostringstream metrics;
  campaign.telemetry().metrics.write_json(metrics);
  artifacts.metrics = metrics.str();
  std::ostringstream trace;
  obs::write_chrome_trace(trace, campaign.telemetry().spans);
  artifacts.trace = trace.str();
  std::ostringstream report;
  obs::write_listbuild_report_json(
      report, core::build_listbuild_report(result, campaign.telemetry()));
  artifacts.report = report.str();
  std::ifstream checkpoint(checkpoint_path);
  std::ostringstream checkpoint_bytes;
  checkpoint_bytes << checkpoint.rdbuf();
  artifacts.checkpoint = checkpoint_bytes.str();
  std::remove(checkpoint_path.c_str());

  search::SearchEngine engine(web);
  core::HisparBuilder builder(web, toplists, engine);
  artifacts.serial_week0_csv =
      core::to_csv(builder.build(config.list, /*week=*/0));
  return artifacts;
}

TEST(GoldenArtifacts, ListBuildOutputsArePinned) {
  const ListBuildArtifacts artifacts = run_listbuild_pipeline();
  const std::uint64_t csv = util::fnv1a(artifacts.lists_csv);
  const std::uint64_t churn = util::fnv1a(artifacts.churn);
  const std::uint64_t ledger = util::fnv1a(artifacts.ledger);
  const std::uint64_t metrics = util::fnv1a(artifacts.metrics);
  const std::uint64_t trace = util::fnv1a(artifacts.trace);
  const std::uint64_t report = util::fnv1a(artifacts.report);
  const std::uint64_t checkpoint = util::fnv1a(artifacts.checkpoint);

  if (std::getenv("HISPAR_UPDATE_GOLDENS") != nullptr) {
    std::printf(
        "constexpr std::uint64_t kGoldenListCsv = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenListChurn = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenListLedger = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenListMetrics = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenListTrace = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenListReport = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenListCheckpoint = 0x%llxull;\n",
        static_cast<unsigned long long>(csv),
        static_cast<unsigned long long>(churn),
        static_cast<unsigned long long>(ledger),
        static_cast<unsigned long long>(metrics),
        static_cast<unsigned long long>(trace),
        static_cast<unsigned long long>(report),
        static_cast<unsigned long long>(checkpoint));
    GTEST_SKIP() << "HISPAR_UPDATE_GOLDENS set: printed digests, not "
                    "comparing";
  }

  // The serial-equivalence contract is structural, not a golden: it
  // must hold whatever the digests say.
  const std::size_t week0_len = artifacts.serial_week0_csv.size();
  ASSERT_GE(artifacts.lists_csv.size(), week0_len);
  EXPECT_EQ(artifacts.lists_csv.substr(0, week0_len),
            artifacts.serial_week0_csv)
      << "sharded week-0 list differs from the serial builder";

  EXPECT_EQ(csv, kGoldenListCsv) << "weekly list CSV bytes changed";
  EXPECT_EQ(churn, kGoldenListChurn) << "churn CSV bytes changed";
  EXPECT_EQ(ledger, kGoldenListLedger) << "cost ledger bytes changed";
  EXPECT_EQ(metrics, kGoldenListMetrics) << "metrics JSON bytes changed";
  EXPECT_EQ(trace, kGoldenListTrace) << "trace JSON bytes changed";
  EXPECT_EQ(report, kGoldenListReport) << "report JSON bytes changed";
  EXPECT_EQ(checkpoint, kGoldenListCheckpoint) << "checkpoint bytes changed";

  EXPECT_EQ(artifacts.lists_csv.rfind("domain,bootstrap_rank,", 0), 0u);
  EXPECT_EQ(artifacts.churn.rfind("week_from,week_to,", 0), 0u);
  EXPECT_NE(artifacts.report.find("\"hispar-listbuild-report-v1\""),
            std::string::npos);
}

// --- Multi-vantage pipeline goldens ---
//
// Same discipline for the multi-vantage engine: digests of every
// artifact of `hispar measure --universe 600 --sites 24 --loads 4
// --vantages 3 --jobs 1 --seed 42` plus the consensus CSV, the
// hispar-vantage-report-v1 JSON and the vantage-granular checkpoint.
// The digests pin the cross-vantage seed forking, the substrate
// derivation per profile, the merged telemetry layout and the
// checkpoint stream all at once.
constexpr std::uint64_t kGoldenVantageCsv = 0x4afc148967473853ull;
constexpr std::uint64_t kGoldenVantageMetrics = 0x1151ed15038a7a4ull;
constexpr std::uint64_t kGoldenVantageTrace = 0x3e7e63752cdc689dull;
constexpr std::uint64_t kGoldenVantageConsensus = 0x8330f483b415d3ull;
constexpr std::uint64_t kGoldenVantageReport = 0xa77ced31b87353deull;
constexpr std::uint64_t kGoldenVantageCheckpoint = 0x7959b2b2e3d84826ull;

struct VantageArtifacts {
  std::string csv;  // all vantages, concatenated in vantage order
  std::string metrics;
  std::string trace;
  std::string consensus;
  std::string report;
  std::string checkpoint;
};

VantageArtifacts run_vantage_pipeline() {
  web::SyntheticWebConfig web_config;
  web_config.site_count = 600;
  web_config.seed = 42;
  web::SyntheticWeb web(web_config);
  toplist::TopListFactory toplists(web);
  search::SearchEngine engine(web);

  core::HisparBuilder builder(web, toplists, engine);
  core::HisparConfig list_config;
  list_config.name = "H24";
  list_config.target_sites = 24;
  list_config.urls_per_site = 20;
  list_config.min_internal_results = 5;
  const core::HisparList list = builder.build(list_config, /*week=*/0);

  const std::string checkpoint_path =
      ::testing::TempDir() + "hispar_golden_vantage_ckpt.txt";
  std::remove(checkpoint_path.c_str());

  core::VantageCampaignConfig config;
  config.base.landing_loads = 4;
  config.base.jobs = 1;
  config.base.observability.enabled = true;
  config.profiles = net::VantageProfile::default_vantages(3);
  config.checkpoint_path = checkpoint_path;
  core::VantageCampaign campaign(web, config);
  const auto result = campaign.run(list);

  VantageArtifacts artifacts;
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
  std::ostringstream consensus;
  core::write_vantage_consensus_csv(consensus, result.observations);
  artifacts.consensus = consensus.str();
  std::ostringstream report;
  obs::write_vantage_report_json(
      report, core::build_vantage_report(result.observations, config.profiles,
                                         campaign.telemetry()));
  artifacts.report = report.str();
  std::ifstream checkpoint(checkpoint_path);
  std::ostringstream checkpoint_bytes;
  checkpoint_bytes << checkpoint.rdbuf();
  artifacts.checkpoint = checkpoint_bytes.str();
  std::remove(checkpoint_path.c_str());
  return artifacts;
}

TEST(GoldenArtifacts, MultiVantageOutputsArePinned) {
  const VantageArtifacts artifacts = run_vantage_pipeline();
  const std::uint64_t csv = util::fnv1a(artifacts.csv);
  const std::uint64_t metrics = util::fnv1a(artifacts.metrics);
  const std::uint64_t trace = util::fnv1a(artifacts.trace);
  const std::uint64_t consensus = util::fnv1a(artifacts.consensus);
  const std::uint64_t report = util::fnv1a(artifacts.report);
  const std::uint64_t checkpoint = util::fnv1a(artifacts.checkpoint);

  if (std::getenv("HISPAR_UPDATE_GOLDENS") != nullptr) {
    std::printf(
        "constexpr std::uint64_t kGoldenVantageCsv = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenVantageMetrics = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenVantageTrace = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenVantageConsensus = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenVantageReport = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenVantageCheckpoint = 0x%llxull;\n",
        static_cast<unsigned long long>(csv),
        static_cast<unsigned long long>(metrics),
        static_cast<unsigned long long>(trace),
        static_cast<unsigned long long>(consensus),
        static_cast<unsigned long long>(report),
        static_cast<unsigned long long>(checkpoint));
    GTEST_SKIP() << "HISPAR_UPDATE_GOLDENS set: printed digests, not "
                    "comparing";
  }

  EXPECT_EQ(csv, kGoldenVantageCsv) << "per-vantage CSV bytes changed";
  EXPECT_EQ(metrics, kGoldenVantageMetrics) << "metrics JSON bytes changed";
  EXPECT_EQ(trace, kGoldenVantageTrace) << "trace JSON bytes changed";
  EXPECT_EQ(consensus, kGoldenVantageConsensus)
      << "consensus CSV bytes changed";
  EXPECT_EQ(report, kGoldenVantageReport)
      << "vantage report JSON bytes changed";
  EXPECT_EQ(checkpoint, kGoldenVantageCheckpoint)
      << "vantage checkpoint bytes changed";

  EXPECT_EQ(artifacts.consensus.rfind("domain,rank,vantages,", 0), 0u);
  EXPECT_NE(artifacts.report.find("\"hispar-vantage-report-v1\""),
            std::string::npos);
  EXPECT_EQ(artifacts.checkpoint.rfind("hispar-vantage,v1,", 0), 0u);
}

// --- Browsing-session pipeline goldens ---
//
// Same discipline for the browsing-session engine: digests of every
// artifact of `hispar measure --universe 600 --sites 24 --loads 4
// --sessions --session-len 5 --jobs 1 --seed 42` — the warm session
// CSV, the per-site warm-hits CSV, the merged telemetry, the
// hispar-session-report-v1 JSON (whose cold arm is the regular
// campaign over the same list) and the session-granular checkpoint.
// The digests pin the per-session seed forking, the visit-order
// shuffle, the browser-cache hit/revalidate/miss classification and
// the warm DNS/connection carryover all at once.
constexpr std::uint64_t kGoldenSessionCsv = 0xad4f9187625b0606ull;
constexpr std::uint64_t kGoldenSessionWarmHits = 0x4573332e8b782ae3ull;
constexpr std::uint64_t kGoldenSessionMetrics = 0x7fecc34a2bb313e7ull;
constexpr std::uint64_t kGoldenSessionTrace = 0xf62cba96ba07959dull;
constexpr std::uint64_t kGoldenSessionReport = 0x3773e4caa2e599ceull;
constexpr std::uint64_t kGoldenSessionCheckpoint = 0xd724138d3def54beull;

struct SessionArtifacts {
  std::string csv;        // warm session observations
  std::string warm_hits;  // per-site cache counters
  std::string metrics;
  std::string trace;
  std::string report;
  std::string checkpoint;
};

SessionArtifacts run_session_pipeline() {
  web::SyntheticWebConfig web_config;
  web_config.site_count = 600;
  web_config.seed = 42;
  web::SyntheticWeb web(web_config);
  toplist::TopListFactory toplists(web);
  search::SearchEngine engine(web);

  core::HisparBuilder builder(web, toplists, engine);
  core::HisparConfig list_config;
  list_config.name = "H24";
  list_config.target_sites = 24;
  list_config.urls_per_site = 20;
  list_config.min_internal_results = 5;
  const core::HisparList list = builder.build(list_config, /*week=*/0);

  const std::string checkpoint_path =
      ::testing::TempDir() + "hispar_golden_session_ckpt.txt";
  std::remove(checkpoint_path.c_str());

  core::SessionConfig config;
  config.base.landing_loads = 4;
  config.base.jobs = 1;
  config.base.observability.enabled = true;
  config.session_len = 5;
  config.checkpoint_path = checkpoint_path;
  core::SessionCampaign campaign(web, config);
  const auto warm = campaign.run(list);

  // The cold arm of the report is the regular campaign over the same
  // list (exactly what `hispar measure --sessions` runs first).
  core::CampaignConfig cold_config = config.base;
  cold_config.observability.enabled = false;
  core::MeasurementCampaign cold_campaign(web, cold_config);
  const auto cold = cold_campaign.run(list);

  SessionArtifacts artifacts;
  std::ostringstream csv;
  core::write_measure_csv(csv, warm);
  artifacts.csv = csv.str();
  std::ostringstream warm_hits;
  core::write_warm_hits_csv(warm_hits, warm, campaign.cache_stats());
  artifacts.warm_hits = warm_hits.str();
  std::ostringstream metrics;
  campaign.telemetry().metrics.write_json(metrics);
  artifacts.metrics = metrics.str();
  std::ostringstream trace;
  obs::write_chrome_trace(trace, campaign.telemetry().spans);
  artifacts.trace = trace.str();
  std::ostringstream report;
  obs::write_session_report_json(
      report,
      core::build_session_report(cold, warm, campaign.cache_stats(),
                                 campaign.telemetry(), config.session_len));
  artifacts.report = report.str();
  std::ifstream checkpoint(checkpoint_path);
  std::ostringstream checkpoint_bytes;
  checkpoint_bytes << checkpoint.rdbuf();
  artifacts.checkpoint = checkpoint_bytes.str();
  std::remove(checkpoint_path.c_str());
  return artifacts;
}

TEST(GoldenArtifacts, BrowsingSessionOutputsArePinned) {
  const SessionArtifacts artifacts = run_session_pipeline();
  const std::uint64_t csv = util::fnv1a(artifacts.csv);
  const std::uint64_t warm_hits = util::fnv1a(artifacts.warm_hits);
  const std::uint64_t metrics = util::fnv1a(artifacts.metrics);
  const std::uint64_t trace = util::fnv1a(artifacts.trace);
  const std::uint64_t report = util::fnv1a(artifacts.report);
  const std::uint64_t checkpoint = util::fnv1a(artifacts.checkpoint);

  if (std::getenv("HISPAR_UPDATE_GOLDENS") != nullptr) {
    std::printf(
        "constexpr std::uint64_t kGoldenSessionCsv = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenSessionWarmHits = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenSessionMetrics = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenSessionTrace = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenSessionReport = 0x%llxull;\n"
        "constexpr std::uint64_t kGoldenSessionCheckpoint = 0x%llxull;\n",
        static_cast<unsigned long long>(csv),
        static_cast<unsigned long long>(warm_hits),
        static_cast<unsigned long long>(metrics),
        static_cast<unsigned long long>(trace),
        static_cast<unsigned long long>(report),
        static_cast<unsigned long long>(checkpoint));
    GTEST_SKIP() << "HISPAR_UPDATE_GOLDENS set: printed digests, not "
                    "comparing";
  }

  EXPECT_EQ(csv, kGoldenSessionCsv) << "session CSV bytes changed";
  EXPECT_EQ(warm_hits, kGoldenSessionWarmHits)
      << "warm-hits CSV bytes changed";
  EXPECT_EQ(metrics, kGoldenSessionMetrics) << "metrics JSON bytes changed";
  EXPECT_EQ(trace, kGoldenSessionTrace) << "trace JSON bytes changed";
  EXPECT_EQ(report, kGoldenSessionReport)
      << "session report JSON bytes changed";
  EXPECT_EQ(checkpoint, kGoldenSessionCheckpoint)
      << "session checkpoint bytes changed";

  EXPECT_EQ(artifacts.warm_hits.rfind("domain,rank,lookups,", 0), 0u);
  EXPECT_NE(artifacts.report.find("\"hispar-session-report-v1\""),
            std::string::npos);
  EXPECT_EQ(artifacts.checkpoint.rfind("hispar-session,v1,", 0), 0u);
  // The engine's reason to exist: the warm cache must actually hit.
  EXPECT_EQ(artifacts.report.find("\"cache_fresh_hits\":0,"),
            std::string::npos);
}

}  // namespace
