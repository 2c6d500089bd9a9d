// ListBuildCampaign: serial equivalence, jobs invariance, fault
// handling, and week-granular checkpoint resume.
//
// The campaign's contract mirrors the measurement campaign's: every
// output byte is identical for any --jobs value and across kill +
// resume, and a fault-free build produces exactly the serial
// HisparBuilder's list, examined-site count and billed-query count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/hispar.h"
#include "core/list_build.h"
#include "core/serialization.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace {

using namespace hispar;

struct BuildBytes {
  std::vector<std::string> csvs;  // one per week
  std::string metrics;
  std::string trace;
  std::string report;
  std::string churn;
  std::string ledger;
};

class ListBuildTest : public ::testing::Test {
 protected:
  ListBuildTest() : web_({150, 37, 300, false}), toplists_(web_) {}

  core::ListBuildConfig base_config() const {
    core::ListBuildConfig config;
    config.list.name = "H12";
    config.list.target_sites = 12;
    config.list.urls_per_site = 6;  // small sets keep the matrix fast
    config.list.min_internal_results = 4;
    return config;
  }

  BuildBytes run(core::ListBuildConfig config) {
    core::ListBuildCampaign campaign(web_, toplists_, config);
    const core::ListBuildResult result = campaign.run();

    BuildBytes bytes;
    for (const auto& list : result.lists)
      bytes.csvs.push_back(core::to_csv(list));
    std::ostringstream metrics;
    campaign.telemetry().metrics.write_json(metrics);
    bytes.metrics = metrics.str();
    std::ostringstream trace;
    obs::write_chrome_trace(trace, campaign.telemetry().spans);
    bytes.trace = trace.str();
    std::ostringstream report;
    obs::write_listbuild_report_json(
        report, core::build_listbuild_report(result, campaign.telemetry()));
    bytes.report = report.str();
    std::ostringstream churn;
    core::write_churn_csv(churn, result.lists);
    bytes.churn = churn.str();
    std::ostringstream ledger;
    core::write_cost_ledger_csv(ledger, result.weeks);
    bytes.ledger = ledger.str();
    return bytes;
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  web::SyntheticWeb web_;
  toplist::TopListFactory toplists_;
};

TEST_F(ListBuildTest, FaultFreeMatchesSerialBuilder) {
  core::ListBuildConfig config = base_config();
  config.weeks = 2;
  config.jobs = 3;

  core::ListBuildCampaign campaign(web_, toplists_, config);
  const core::ListBuildResult result = campaign.run();
  ASSERT_EQ(result.lists.size(), 2u);
  ASSERT_EQ(result.weeks.size(), 2u);

  search::SearchEngine engine(web_);
  core::HisparBuilder builder(web_, toplists_, engine);
  for (std::uint64_t week = 0; week < 2; ++week) {
    const core::HisparList serial = builder.build(config.list, week);
    const core::BuildStats& serial_stats = builder.last_build_stats();
    EXPECT_EQ(core::to_csv(result.lists[week]), core::to_csv(serial))
        << "week " << week;
    const core::WeekBuildStats& stats = result.weeks[week];
    EXPECT_EQ(stats.sites_examined, serial_stats.sites_examined);
    EXPECT_EQ(stats.sites_dropped, serial_stats.sites_dropped);
    EXPECT_EQ(stats.sites_missing, serial_stats.sites_missing);
    EXPECT_EQ(stats.queries_billed, serial_stats.queries_issued);
    EXPECT_EQ(stats.sites_quarantined, 0u);
    EXPECT_EQ(stats.retries, 0u);
  }
}

TEST_F(ListBuildTest, JobsNeverChangeAnyArtifactByte) {
  for (const char* profile : {"none", "uniform:0.08"}) {
    core::ListBuildConfig config = base_config();
    config.weeks = 2;
    config.fault_profile = net::SearchFaultProfile::parse(profile);
    config.observability.enabled = true;

    config.jobs = 1;
    const BuildBytes reference = run(config);
    // A faulty cell must actually inject, a fault-free cell must not.
    if (std::string(profile) == "none")
      EXPECT_EQ(reference.metrics.find("search.faults.injected"),
                std::string::npos);
    else
      EXPECT_NE(reference.metrics.find("search.faults.injected"),
                std::string::npos)
          << "fault profile injected nothing";

    for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
      config.jobs = jobs;
      const BuildBytes other = run(config);
      const std::string cell =
          std::string(profile) + ", jobs " + std::to_string(jobs) + " vs 1";
      EXPECT_EQ(reference.csvs, other.csvs) << "list CSV differs: " << cell;
      EXPECT_EQ(reference.metrics, other.metrics)
          << "metrics differ: " << cell;
      EXPECT_EQ(reference.trace, other.trace) << "trace differs: " << cell;
      EXPECT_EQ(reference.report, other.report) << "report differs: " << cell;
      EXPECT_EQ(reference.churn, other.churn) << "churn differs: " << cell;
      EXPECT_EQ(reference.ledger, other.ledger) << "ledger differs: " << cell;
    }
  }
}

TEST_F(ListBuildTest, KillAndResumeIsByteIdentical) {
  const std::string path = ::testing::TempDir() + "listbuild_resume_ckpt.txt";
  std::remove(path.c_str());

  core::ListBuildConfig config = base_config();
  config.weeks = 3;
  config.jobs = 2;
  config.fault_profile = net::SearchFaultProfile::parse("uniform:0.08");
  config.observability.enabled = true;
  config.checkpoint_path = path;

  const BuildBytes full = run(config);
  const std::string full_checkpoint = read_file(path);
  ASSERT_FALSE(full_checkpoint.empty());

  // Kill: keep the first ~60% of the checkpoint, tearing mid-week.
  {
    std::ofstream out(path, std::ios::trunc);
    out << full_checkpoint.substr(0, full_checkpoint.size() * 6 / 10);
  }

  config.jobs = 8;  // resume on a different worker count
  const BuildBytes resumed = run(config);
  EXPECT_EQ(full.csvs, resumed.csvs);
  EXPECT_EQ(full.metrics, resumed.metrics);
  EXPECT_EQ(full.trace, resumed.trace);
  EXPECT_EQ(full.report, resumed.report);
  // The rewritten + extended checkpoint converges on the same bytes an
  // uninterrupted run wrote.
  EXPECT_EQ(full_checkpoint, read_file(path));
  std::remove(path.c_str());
}

TEST_F(ListBuildTest, ChecksumMismatchRefusesResume) {
  const std::string path = ::testing::TempDir() + "listbuild_digest_ckpt.txt";
  std::remove(path.c_str());

  core::ListBuildConfig config = base_config();
  config.checkpoint_path = path;
  run(config);

  config.seed = config.seed + 1;  // different fault universe
  core::ListBuildCampaign campaign(web_, toplists_, config);
  EXPECT_THROW(campaign.run(), std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(ListBuildTest, WeeklyRefreshExtendsTheSameCheckpoint) {
  const std::string path = ::testing::TempDir() + "listbuild_extend_ckpt.txt";
  std::remove(path.c_str());

  // A standing refresh loop: build week 0, then come back for weeks
  // 0..1 against the same file. `weeks` is excluded from the digest, so
  // the second run resumes week 0 and only builds week 1.
  core::ListBuildConfig config = base_config();
  config.weeks = 1;
  config.checkpoint_path = path;
  const BuildBytes first = run(config);

  config.weeks = 2;
  const BuildBytes extended = run(config);

  config.checkpoint_path.clear();
  const BuildBytes fresh = run(config);
  ASSERT_EQ(extended.csvs.size(), 2u);
  EXPECT_EQ(extended.csvs[0], first.csvs[0]);
  EXPECT_EQ(extended.csvs, fresh.csvs);

  std::ifstream in(path);
  const core::ListBuildCheckpoint checkpoint =
      core::read_listbuild_checkpoint(in);
  EXPECT_EQ(checkpoint.weeks.size(), 2u);
  std::remove(path.c_str());
}

TEST_F(ListBuildTest, TotalQuotaOutageQuarantinesEverySite) {
  core::ListBuildConfig config = base_config();
  config.list.max_bootstrap_scan = 30;  // bound the futile scan
  config.fault_profile =
      net::SearchFaultProfile::parse("quota_exceeded=1.0");

  core::ListBuildCampaign campaign(web_, toplists_, config);
  const core::ListBuildResult result = campaign.run();
  ASSERT_EQ(result.weeks.size(), 1u);
  const core::WeekBuildStats& stats = result.weeks[0];
  EXPECT_TRUE(result.lists[0].sets.empty());
  EXPECT_EQ(stats.sites_accepted, 0u);
  EXPECT_EQ(stats.sites_examined, 30u);
  EXPECT_EQ(stats.sites_quarantined, 30u);
  // Quota failures abort the attempt before any page is answered, so
  // nothing is billed; every site burns all its retries.
  EXPECT_EQ(stats.queries_billed, 0u);
  EXPECT_EQ(stats.speculative_queries, 0u);
  EXPECT_EQ(stats.retries,
            30u * static_cast<std::uint64_t>(config.max_query_retries));
  EXPECT_EQ(stats.quarantined_by[static_cast<std::size_t>(
                net::SearchFaultKind::kQuotaExceeded)],
            30u);
}

TEST_F(ListBuildTest, PermanentEmptyPagesBillButDropEverySite) {
  core::ListBuildConfig config = base_config();
  config.list.max_bootstrap_scan = 30;
  config.fault_profile = net::SearchFaultProfile::parse("empty_page=1.0");

  core::ListBuildCampaign campaign(web_, toplists_, config);
  const core::ListBuildResult result = campaign.run();
  const core::WeekBuildStats& stats = result.weeks[0];
  EXPECT_TRUE(result.lists[0].sets.empty());
  EXPECT_EQ(stats.sites_accepted, 0u);
  EXPECT_EQ(stats.sites_dropped, 30u);
  EXPECT_EQ(stats.sites_quarantined, 0u);
  // An empty page is an answered (billed) page that truncates
  // pagination: one billed query per site, no retries — the API
  // "worked", the site just has nothing.
  EXPECT_EQ(stats.queries_billed, 30u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST_F(ListBuildTest, ChurnCellsGuardDegenerateWeeks) {
  core::HisparList empty;
  const core::ChurnCell both_empty = core::churn_between(empty, empty);
  EXPECT_FALSE(both_empty.has_site_churn);
  EXPECT_FALSE(both_empty.has_url_churn);

  // Disjoint weeks: site churn is total, URL churn undefined (no common
  // sites to compare internals over).
  core::HisparList before, after;
  core::UrlSet a;
  a.domain = "a.example";
  a.urls = {"https://a.example/", "https://a.example/x"};
  a.page_indices = {0, 1};
  before.sets.push_back(a);
  core::UrlSet b = a;
  b.domain = "b.example";
  after.sets.push_back(b);
  const core::ChurnCell disjoint = core::churn_between(before, after);
  EXPECT_TRUE(disjoint.has_site_churn);
  EXPECT_DOUBLE_EQ(disjoint.site_churn, 1.0);
  EXPECT_FALSE(disjoint.has_url_churn);

  // The CSV writer prints "na" for undefined cells instead of throwing.
  std::ostringstream os;
  before.week = 0;
  after.week = 1;
  core::write_churn_csv(os, {before, after});
  EXPECT_EQ(os.str(),
            "week_from,week_to,site_churn,internal_url_churn\n"
            "0,1,1,na\n");
}

TEST_F(ListBuildTest, CheckpointRoundTripsWeeksExactly) {
  core::ListBuildWeekRecord record;
  record.week = 7;
  record.list.week = 7;
  core::UrlSet set;
  set.domain = "site.example";
  set.bootstrap_rank = 3;
  set.urls = {"https://site.example/", "https://site.example/p/9"};
  set.page_indices = {0, 9};
  record.list.sets.push_back(set);
  record.stats.week = 7;
  record.stats.sites_examined = 4;
  record.stats.sites_accepted = 1;
  record.stats.sites_dropped = 2;
  record.stats.sites_quarantined = 1;
  record.stats.queries_billed = 5;
  record.stats.speculative_queries = 2;
  record.stats.retries = 3;
  record.stats.quarantined_by[static_cast<std::size_t>(
      net::SearchFaultKind::kRateLimited)] = 1;
  obs::ShardTelemetry telemetry;
  telemetry.metrics.counter("search.queries") = 5;
  telemetry.metrics.gauge("clock_end_s") = 1234.0625;
  obs::TraceSpan span;
  span.name = "site.example";
  span.cat = "site-query";
  span.tid = 1;
  span.ts_us = 10;
  span.dur_us = 20;
  span.args.emplace_back("rank", "3");
  telemetry.spans.push_back(span);
  record.telemetry.emplace(0, std::move(telemetry));

  std::ostringstream out;
  core::write_checkpoint_header(out, core::kListBuildCheckpointTag, 0xabcdu);
  core::append_listbuild_week(out, record);

  std::istringstream in(out.str());
  const core::ListBuildCheckpoint checkpoint =
      core::read_listbuild_checkpoint(in);
  EXPECT_EQ(checkpoint.config_digest, 0xabcdu);
  ASSERT_EQ(checkpoint.weeks.size(), 1u);
  const core::ListBuildWeekRecord& round = checkpoint.weeks[0];
  EXPECT_EQ(round.week, 7u);
  EXPECT_EQ(round.stats, record.stats);
  EXPECT_EQ(core::to_csv(round.list), core::to_csv(record.list));
  ASSERT_EQ(round.telemetry.size(), 1u);
  EXPECT_EQ(round.telemetry.at(0), record.telemetry.at(0));

  // A torn tail (killed mid-append) is silently dropped.
  const std::string bytes = out.str();
  std::istringstream torn(bytes.substr(0, bytes.size() / 2));
  EXPECT_TRUE(core::read_listbuild_checkpoint(torn).weeks.empty());
}

TEST_F(ListBuildTest, UnknownBootstrapDomainsAreCountedNotFatal) {
  // A bootstrap list from a larger universe names domains this web has
  // no site for; the build skips and counts them instead of crashing.
  web::SyntheticWeb big_web({200, 37, 300, false});
  toplist::TopListFactory big_toplists(big_web);

  core::ListBuildConfig config = base_config();
  config.list.min_internal_results = 0;  // let unknown domains reach
                                         // the find_site lookup
  config.list.max_bootstrap_scan = 200;
  config.list.target_sites = 200;
  core::ListBuildCampaign campaign(web_, big_toplists, config);
  const core::ListBuildResult result = campaign.run();
  EXPECT_GT(result.weeks[0].sites_missing, 0u);
  EXPECT_EQ(result.weeks[0].sites_quarantined, 0u);
  for (const auto& set : result.lists[0].sets)
    EXPECT_NE(web_.find_site(set.domain), nullptr);
}

}  // namespace
