// Table-driven coverage of the `hispar measure` / `hispar build`
// fail-fast flag matrix (core/cli_checks, extracted from the CLI in
// ISSUE 9 precisely so this matrix is testable without spawning the
// binary). Every documented rejection is one table row: the flag
// combination plus the substring its std::invalid_argument message
// must carry, "" meaning the combination is accepted.
#include "core/cli_checks.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/serialization.h"

namespace {

using hispar::core::BuildFlags;
using hispar::core::MeasureFlags;
using hispar::core::MeasurePlan;

MeasureFlags base_flags() {
  MeasureFlags flags;
  flags.shards = 4;
  flags.list_sites = 10;
  return flags;
}

struct MeasureCase {
  const char* name;
  MeasureFlags flags;
  // Substring the error message must carry; "" = must be accepted.
  const char* error;
};

std::vector<MeasureCase> measure_matrix() {
  std::vector<MeasureCase> cases;

  cases.push_back({"defaults accepted", base_flags(), ""});

  {
    auto f = base_flags();
    f.shards = 0;
    cases.push_back({"zero shards", f, "--shards must be >= 1"});
  }
  {
    auto f = base_flags();
    f.shards = 11;  // one more than the 10 sites
    cases.push_back({"shards exceed sites", f, "exceeds the site count"});
  }
  {
    auto f = base_flags();
    f.has_vantages = true;
    f.vantages = 0;
    cases.push_back({"zero vantages", f, "--vantages must be >= 1"});
  }
  {
    auto f = base_flags();
    f.has_vantages = true;
    f.vantages = 3;
    f.vantage_profile = "v0;v1";  // two profiles vs --vantages 3
    cases.push_back({"vantage count disagrees with profile list", f,
                     "disagrees with the --vantage-profile count"});
  }
  {
    auto f = base_flags();
    f.has_vantages = true;
    f.vantages = 2;
    f.vantage_profile = "v0;v1";
    cases.push_back({"vantage count agrees with profile list", f, ""});
  }
  {
    auto f = base_flags();
    f.consensus_out = "consensus.csv";
    cases.push_back({"consensus without vantages", f,
                     "--consensus-out needs --vantages"});
  }
  {
    auto f = base_flags();
    f.has_vantages = true;
    f.vantages = 2;
    f.consensus_out = "consensus.csv";
    cases.push_back({"consensus with vantages", f, ""});
  }
  {
    auto f = base_flags();
    f.has_session_flags = true;  // --session-len et al. without --sessions
    cases.push_back({"session flags without sessions", f,
                     "need --sessions"});
  }
  {
    auto f = base_flags();
    f.sessions = true;
    f.has_session_flags = true;
    cases.push_back({"session flags with sessions", f, ""});
  }
  {
    auto f = base_flags();
    f.sessions = true;
    f.has_vantages = true;
    f.vantages = 2;
    cases.push_back({"sessions combined with vantages", f,
                     "--sessions cannot be combined"});
  }
  {
    auto f = base_flags();
    f.sessions = true;
    f.vantage_profile = "v0:region=eu";
    cases.push_back({"sessions combined with vantage profile", f,
                     "--sessions cannot be combined"});
  }
  {
    auto f = base_flags();
    f.sessions = true;
    f.session_len = 0;
    cases.push_back({"zero session length", f,
                     "--session-len must be >= 1"});
  }
  {
    auto f = base_flags();
    f.session_len = 0;  // ignored without --sessions and session flags
    cases.push_back({"session length ignored when cold", f, ""});
  }

  return cases;
}

TEST(CliChecksTest, MeasureFlagMatrix) {
  for (const auto& row : measure_matrix()) {
    if (row.error[0] == '\0') {
      EXPECT_NO_THROW(hispar::core::validate_measure_flags(row.flags))
          << row.name;
      continue;
    }
    try {
      hispar::core::validate_measure_flags(row.flags);
      ADD_FAILURE() << row.name << ": accepted, expected '" << row.error
                    << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(row.error), std::string::npos)
          << row.name << ": got '" << e.what() << "'";
    }
  }
}

TEST(CliChecksTest, MeasurePlanResolvesModesAndProfiles) {
  auto f = base_flags();
  const MeasurePlan cold = hispar::core::validate_measure_flags(f);
  EXPECT_FALSE(cold.vantage_mode);
  EXPECT_FALSE(cold.session_mode);
  EXPECT_TRUE(cold.profiles.empty());

  f.has_vantages = true;
  f.vantages = 3;
  const MeasurePlan vantage = hispar::core::validate_measure_flags(f);
  EXPECT_TRUE(vantage.vantage_mode);
  EXPECT_EQ(vantage.profiles.size(), 3u);

  auto p = base_flags();
  p.vantage_profile = "edge:region=eu;core:region=na";
  const MeasurePlan parsed = hispar::core::validate_measure_flags(p);
  EXPECT_TRUE(parsed.vantage_mode);
  ASSERT_EQ(parsed.profiles.size(), 2u);
  EXPECT_EQ(parsed.profiles[0].name, "edge");

  auto s = base_flags();
  s.sessions = true;
  EXPECT_TRUE(hispar::core::validate_measure_flags(s).session_mode);
}

struct BuildCase {
  const char* name;
  BuildFlags flags;
  const char* error;
};

TEST(CliChecksTest, BuildFlagMatrix) {
  const BuildCase rows[] = {
      {"defaults accepted", {1, 4, 10}, ""},
      {"zero weeks", {0, 4, 10}, "--weeks must be >= 1"},
      {"zero shards", {1, 0, 10}, "--shards must be >= 1"},
      {"shards exceed target sites", {1, 11, 10}, "exceeds the site count"},
      {"urls one above min-results", {1, 4, 10, 6, 5}, ""},
      {"urls equal min-results", {1, 4, 10, 5, 5},
       "--urls (5) must exceed --min-results (5)"},
      {"urls below min-results", {1, 4, 10, 3, 5},
       "--urls (3) must exceed --min-results (5)"},
      {"no urls, no minimum", {1, 4, 10, 0, 0},
       "--urls (0) must exceed --min-results (0)"},
      {"one url, no minimum", {1, 4, 10, 1, 0}, ""},
  };
  for (const auto& row : rows) {
    if (row.error[0] == '\0') {
      EXPECT_NO_THROW(hispar::core::validate_build_flags(row.flags))
          << row.name;
      continue;
    }
    try {
      hispar::core::validate_build_flags(row.flags);
      ADD_FAILURE() << row.name << ": accepted, expected '" << row.error
                    << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(row.error), std::string::npos)
          << row.name << ": got '" << e.what() << "'";
    }
  }
}

// Every command that builds a list from --urls/--min-results rejects a
// budget that can only produce an empty list, before any scan.
TEST(CliChecksTest, EmptyListBudgetIsRejectedByEveryListBuildingCommand) {
  const std::string err =
      ::testing::TempDir() + "cli_checks_empty_list_budget_stderr.txt";
  for (const std::string cmd : {"build", "churn", "harden", "measure"}) {
    const std::string command =
        std::string(HISPAR_CLI_PATH) + " " + cmd +
        " --universe 600 --sites 4 --urls 5 --shards 2 --weeks 2 --out " +
        ::testing::TempDir() + "cli_checks_empty_list_budget.csv > /dev/null 2> " +
        err;
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 1) << cmd;
    std::ifstream in(err);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find(cmd + ": --urls (5) must exceed --min-results (5)"),
              std::string::npos)
        << cmd << ": " << text;
  }
  std::remove(err.c_str());
}

// Bare --resume, conflicting --checkpoint/--resume, and a missing
// resume file — the checkpoint-path leg of the matrix
// (core::resolve_checkpoint_path).
TEST(CliChecksTest, CheckpointPathMatrix) {
  using hispar::core::resolve_checkpoint_path;

  EXPECT_EQ(resolve_checkpoint_path("measure", "", false, ""), "");
  EXPECT_EQ(resolve_checkpoint_path("measure", "ck.txt", false, ""), "ck.txt");

  try {
    resolve_checkpoint_path("measure", "", true, "");
    ADD_FAILURE() << "bare --resume accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--resume needs a checkpoint file"),
              std::string::npos);
  }

  EXPECT_THROW(resolve_checkpoint_path("measure", "a.txt", true, "b.txt"),
               std::invalid_argument);
  EXPECT_THROW(
      resolve_checkpoint_path("measure", "", true, "does-not-exist.ckpt"),
      std::invalid_argument);

  const std::string existing = ::testing::TempDir() + "cli_checks_resume.ckpt";
  std::ofstream(existing) << "hispar-checkpoint,v1,0\n";
  EXPECT_EQ(resolve_checkpoint_path("measure", "", true, existing), existing);
  EXPECT_EQ(resolve_checkpoint_path("measure", existing, true, existing),
            existing);
  std::remove(existing.c_str());
}

// Unwritable output paths fail before any campaign work starts.
TEST(CliChecksTest, UnwritableOutputFailsFast) {
  try {
    hispar::core::open_artifact("measure", "out",
                                "/nonexistent-dir/metrics.csv");
    ADD_FAILURE() << "unwritable path accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("measure: cannot write --out file"),
              std::string::npos);
    EXPECT_NE(what.find("/nonexistent-dir/metrics.csv"), std::string::npos);
  }

  const std::string ok_path = ::testing::TempDir() + "cli_checks_out.csv";
  auto out = hispar::core::open_artifact("measure", "out", ok_path);
  ASSERT_TRUE(out != nullptr);
  EXPECT_TRUE(out->good());
  out.reset();
  std::remove(ok_path.c_str());
}

// /dev/full accepts every open and fails every write: the open-time
// check passes, so only the end-of-write check can catch it.
bool have_dev_full() { return ::access("/dev/full", W_OK) == 0; }

TEST(CliChecksTest, FinishArtifactReportsFailedWrites) {
  if (!have_dev_full()) GTEST_SKIP() << "/dev/full is absent";
  auto full = hispar::core::open_artifact("measure", "report-out", "/dev/full");
  *full << std::string(1 << 16, 'x');
  try {
    hispar::core::finish_artifact("measure", "report-out", "/dev/full", *full);
    ADD_FAILURE() << "a failed write was reported as written";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "measure: cannot write --report-out file: /dev/full");
  }

  const std::string ok_path = ::testing::TempDir() + "cli_checks_finish.csv";
  auto ok = hispar::core::open_artifact("measure", "out", ok_path);
  *ok << "a,b\n";
  EXPECT_NO_THROW(
      hispar::core::finish_artifact("measure", "out", ok_path, *ok));
  std::remove(ok_path.c_str());
}

// The same contract end to end through the `hispar` binary: a run whose
// artifact could not be written exits non-zero and names the flag. ctest
// runs each case as its own process, in parallel, so every file a case
// touches carries the case's name.
class CliArtifactWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!have_dev_full()) GTEST_SKIP() << "/dev/full is absent";
    prefix_ = ::testing::TempDir() + "cli_checks_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name();
    list_path_ = prefix_ + "_list.csv";
    ASSERT_EQ(run("build " + kWorld + " --out " + list_path_), 0)
        << stderr_text();
  }
  void TearDown() override {
    for (const char* suffix : {"_list.csv", "_stderr.txt", "_out.csv"})
      std::remove((prefix_ + suffix).c_str());
  }

  // Runs `hispar <args>`; returns its exit status, keeping stderr.
  int run(const std::string& args) const {
    const std::string command = std::string(HISPAR_CLI_PATH) + " " + args +
                                " > /dev/null 2> " + prefix_ + "_stderr.txt";
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  std::string stderr_text() const {
    std::ifstream in(prefix_ + "_stderr.txt");
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static inline const std::string kWorld =
      "--universe 600 --sites 4 --urls 4 --min-results 2 --shards 2";
  std::string prefix_;
  std::string list_path_;
};

TEST_F(CliArtifactWriteTest, MeasureOutToFullDeviceFails) {
  EXPECT_EQ(run("measure --universe 600 --shards 2 --loads 1 --list " +
                list_path_ + " --out /dev/full"),
            1);
  EXPECT_NE(stderr_text().find("measure: cannot write --out file: /dev/full"),
            std::string::npos)
      << stderr_text();
}

TEST_F(CliArtifactWriteTest, MeasureReportOutToFullDeviceFails) {
  const std::string out = prefix_ + "_out.csv";
  EXPECT_EQ(run("measure --universe 600 --shards 2 --loads 1 --list " +
                list_path_ + " --out " + out + " --report-out /dev/full"),
            1);
  EXPECT_NE(
      stderr_text().find("measure: cannot write --report-out file: /dev/full"),
      std::string::npos)
      << stderr_text();
}

TEST_F(CliArtifactWriteTest, BuildOutToFullDeviceFails) {
  EXPECT_EQ(run("build " + kWorld + " --out /dev/full"), 1);
  EXPECT_NE(stderr_text().find("build: cannot write --out file: /dev/full"),
            std::string::npos)
      << stderr_text();
}

}  // namespace
