// Tests for core::CheckpointJournal and the checkpoint framing every
// format shares (header + config digest, torn-tail discard, atomic
// rewrite, locked and flushed appends, compaction), plus the I/O-failure
// contract: a run whose checkpoint writes fail must throw, never report
// success with blocks missing from its checkpoint.
#include "core/journal.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hispar.h"
#include "core/measurement.h"
#include "core/parallel.h"
#include "core/serialization.h"

namespace {

using namespace hispar;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

core::SiteObservation observation(std::size_t i) {
  core::SiteObservation site;
  site.domain = "site" + std::to_string(i) + ".example";
  site.bootstrap_rank = i + 1;
  site.landing.bytes = 1000.5 + static_cast<double>(i);
  site.landing.wait_samples_ms = {1.25, 9.5};
  site.internals.resize(2);
  return site;
}

// A journal's lazily computed config digest.
auto digest(std::uint64_t value) {
  return [value] { return value; };
}

// Lowers the process's file-size limit for the test's scope, with
// SIGXFSZ ignored so an oversized write fails with EFBIG instead of
// killing the process. Restores both on destruction.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    getrlimit(RLIMIT_FSIZE, &previous_);
    rlimit limited = previous_;
    limited.rlim_cur = bytes;
    setrlimit(RLIMIT_FSIZE, &limited);
  }
  ~FileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &previous_);
    std::signal(SIGXFSZ, previous_handler_);
  }

 private:
  rlimit previous_{};
  void (*previous_handler_)(int) = nullptr;
};

// --- The journal ---

TEST(CheckpointJournal, InactiveWithoutAPath) {
  core::CheckpointJournal journal("campaign", core::kCampaignCheckpointTag,
                                  "");
  EXPECT_FALSE(journal.open(core::read_checkpoint, digest(1), "campaign"));
  const auto untouched = [](std::ostream&) { ADD_FAILURE(); };
  journal.rewrite(untouched);
  journal.append(untouched);
  journal.compact(untouched);
}

TEST(CheckpointJournal, RewriteAppendReopenAndCompact) {
  const std::string path = fresh_path("journal_roundtrip.txt");
  const browser::CacheStats cache{10, 4, 1, 5, 5, 0};
  const auto session = [&](std::size_t position) {
    return [&, position](std::ostream& out) {
      core::append_session_block(out, position, observation(position),
                                 cache);
    };
  };
  {
    core::CheckpointJournal journal("session campaign",
                                    core::kSessionCheckpointTag, path);
    EXPECT_FALSE(
        journal.open(core::read_session_checkpoint, digest(9), "campaign"));
    journal.rewrite([](std::ostream&) {});
    EXPECT_EQ(slurp(path), "hispar-session,v1,9\n");
    journal.append(session(0));
    journal.append(session(1));
  }

  core::CheckpointJournal journal("session campaign",
                                  core::kSessionCheckpointTag, path);
  try {
    journal.open(core::read_session_checkpoint, digest(10),
                 "campaign (x changed)");
    FAIL() << "expected a digest mismatch";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(),
                 "session campaign: checkpoint was written by a different "
                 "campaign (x changed)");
  }
  const auto checkpoint =
      journal.open(core::read_session_checkpoint, digest(9), "campaign");
  ASSERT_TRUE(checkpoint);
  ASSERT_EQ(checkpoint->sessions.size(), 2u);
  EXPECT_EQ(checkpoint->sessions[1].observation.domain, "site1.example");
  EXPECT_EQ(checkpoint->sessions[1].cache, cache);

  // A rewrite keeps exactly the blocks it is given; appends land after.
  journal.rewrite(session(1));
  journal.append(session(2));
  std::ostringstream expected;
  core::write_checkpoint_header(expected, core::kSessionCheckpointTag, 9);
  session(1)(expected);
  session(2)(expected);
  EXPECT_EQ(slurp(path), expected.str());

  // Compaction closes the append stream and replaces the file whole.
  journal.compact(session(2));
  std::ostringstream compacted;
  core::write_checkpoint_header(compacted, core::kSessionCheckpointTag, 9);
  session(2)(compacted);
  EXPECT_EQ(slurp(path), compacted.str());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(CheckpointJournal, ConcurrentAppendsLandAsWholeBlocks) {
  const std::string path = fresh_path("journal_concurrent.txt");
  std::vector<core::SiteObservation> observations;
  for (std::size_t i = 0; i < 32; ++i) observations.push_back(observation(i));
  core::CheckpointJournal journal("campaign", core::kCampaignCheckpointTag,
                                  path);
  journal.open(core::read_checkpoint, digest(5), "campaign");
  journal.rewrite([](std::ostream&) {});
  core::for_each_unit(observations.size(), 4, [&](std::size_t shard) {
    journal.append([&](std::ostream& out) {
      core::append_checkpoint_shard(out, shard, {shard}, observations);
    });
  });

  std::ifstream in(path);
  const core::CampaignCheckpoint checkpoint = core::read_checkpoint(in);
  EXPECT_EQ(checkpoint.config_digest, 5u);
  std::vector<std::size_t> shards = checkpoint.completed_shards;
  std::sort(shards.begin(), shards.end());
  ASSERT_EQ(shards.size(), observations.size());
  for (std::size_t i = 0; i < shards.size(); ++i) EXPECT_EQ(shards[i], i);
  for (const auto& [position, site] : checkpoint.observations)
    EXPECT_EQ(site.domain, observations[position].domain);
  std::remove(path.c_str());
}

TEST(CheckpointJournal, UnwritableRewriteThrows) {
  const std::string path = "/nonexistent-dir/journal.txt";
  core::CheckpointJournal journal("list build", core::kListBuildCheckpointTag,
                                  path);
  try {
    journal.rewrite([](std::ostream&) {});
    FAIL() << "expected a write failure";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(),
                 "list build: cannot write checkpoint "
                 "/nonexistent-dir/journal.txt");
  }
}

TEST(CheckpointJournal, FailedAppendThrows) {
  const std::string path = fresh_path("journal_append_limit.txt");
  core::CheckpointJournal journal("campaign", core::kCampaignCheckpointTag,
                                  path);
  journal.open(core::read_checkpoint, digest(5), "campaign");
  journal.rewrite([](std::ostream&) {});
  const std::vector<core::SiteObservation> observations = {observation(0)};
  const FileSizeLimit limit(slurp(path).size() + 16);
  try {
    journal.append([&](std::ostream& out) {
      core::append_checkpoint_shard(out, 0, {0}, observations);
    });
    FAIL() << "expected a write failure";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "campaign: cannot write checkpoint " + path);
  }
  std::remove(path.c_str());
}

// A campaign whose checkpoint appends fail (disk full, file-size limit)
// must throw, not return success with a checkpoint missing blocks.
TEST(CheckpointJournal, CampaignWithFailingAppendsThrows) {
  const web::SyntheticWeb web({150, 37, 300, false});
  const toplist::TopListFactory toplists(web);
  search::SearchEngine engine(web);
  core::HisparBuilder builder(web, toplists, engine);
  core::HisparConfig list_config;
  list_config.target_sites = 6;
  list_config.urls_per_site = 4;
  list_config.min_internal_results = 2;
  const core::HisparList list = builder.build(list_config, 0);

  const std::string path = fresh_path("journal_campaign_limit.txt");
  core::CampaignConfig config;
  config.landing_loads = 2;
  config.shards = 2;
  config.checkpoint_path = path;
  core::MeasurementCampaign campaign(web, config);
  // The header line is under 64 bytes; every shard block is far larger.
  const FileSizeLimit limit(128);
  EXPECT_THROW(campaign.run(list), std::runtime_error);
  std::remove(path.c_str());
}

// --- The shared frame reader, across all four formats ---

struct Format {
  const char* tag;
  // Parses a file, returning its digest and complete-block count.
  std::function<std::pair<std::uint64_t, std::size_t>(std::istream&)> read;
  std::string block;  // one complete block
};

std::vector<Format> formats() {
  const std::vector<core::SiteObservation> sites = {observation(0)};
  std::vector<Format> table;
  std::ostringstream shard, week, vantage, session;
  core::append_checkpoint_shard(shard, 0, {0}, sites);
  table.push_back({core::kCampaignCheckpointTag,
                   [](std::istream& in) {
                     const auto c = core::read_checkpoint(in);
                     return std::pair(c.config_digest,
                                      c.completed_shards.size());
                   },
                   shard.str()});
  core::ListBuildWeekRecord record;
  record.list.sets.push_back({"site0.example", 1, {"https://site0.example/"},
                              {0}});
  core::append_listbuild_week(week, record);
  table.push_back({core::kListBuildCheckpointTag,
                   [](std::istream& in) {
                     const auto c = core::read_listbuild_checkpoint(in);
                     return std::pair(c.config_digest, c.weeks.size());
                   },
                   week.str()});
  core::append_vantage_block(vantage, 0, sites);
  table.push_back({core::kVantageCheckpointTag,
                   [](std::istream& in) {
                     const auto c = core::read_vantage_checkpoint(in);
                     return std::pair(c.config_digest,
                                      c.vantages.size() + c.shards.size());
                   },
                   vantage.str()});
  core::append_session_block(session, 0, sites[0], {});
  table.push_back({core::kSessionCheckpointTag,
                   [](std::istream& in) {
                     const auto c = core::read_session_checkpoint(in);
                     return std::pair(c.config_digest, c.sessions.size());
                   },
                   session.str()});
  return table;
}

TEST(CheckpointFrame, SharedFramingAcrossAllFourFormats) {
  const std::vector<Format> table = formats();
  for (std::size_t k = 0; k < table.size(); ++k) {
    const Format& format = table[k];
    SCOPED_TRACE(format.tag);
    const auto parse = [&](const std::string& bytes) {
      std::istringstream in(bytes);
      return format.read(in);
    };
    const std::string tag = format.tag;
    const std::string header = tag + ",v1,7\n";
    const std::string& block = format.block;

    EXPECT_THROW(parse(""), std::runtime_error);
    EXPECT_THROW(parse(std::string(table[(k + 1) % table.size()].tag) +
                       ",v1,7\n"),
                 std::runtime_error);
    EXPECT_THROW(parse(tag + ",v2,7\n"), std::runtime_error);
    EXPECT_THROW(parse(tag + ",v1,seven\n"), std::runtime_error);
    EXPECT_THROW(parse(tag + ",v1,7" + std::string(1, '\0') + "1\n"),
                 std::runtime_error);

    EXPECT_EQ(parse(header).first, 7u);
    EXPECT_EQ(parse(header).second, 0u);
    EXPECT_EQ(parse(header + block).second, 1u);
    EXPECT_EQ(parse(header + block + block).second, 2u);
    // A torn tail after a complete block is dropped...
    EXPECT_EQ(parse(header + block + block.substr(0, block.size() / 2)).second,
              1u);
    // ...but garbage between complete blocks is corruption.
    EXPECT_THROW(parse(header + block + "garbage\n" + block),
                 std::runtime_error);
  }
}

}  // namespace
