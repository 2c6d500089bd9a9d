#include "core/serialization.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <sstream>

namespace {

using namespace hispar::core;

HisparList sample_list() {
  HisparList list;
  list.name = "sample";
  list.week = 3;
  list.sets.push_back({"alpha.com",
                       1,
                       {"https://www.alpha.com/", "https://www.alpha.com/news/item-4",
                        "https://www.alpha.com/docs/item-9"},
                       {0, 4, 9}});
  list.sets.push_back({"beta.org",
                       5,
                       {"http://www.beta.org/", "https://www.beta.org/posts/item-2"},
                       {0, 2}});
  return list;
}

TEST(SerializationTest, CsvRoundTripIsExact) {
  const HisparList original = sample_list();
  const HisparList loaded = from_csv(to_csv(original), "sample");
  ASSERT_EQ(loaded.sets.size(), original.sets.size());
  for (std::size_t s = 0; s < original.sets.size(); ++s) {
    EXPECT_EQ(loaded.sets[s].domain, original.sets[s].domain);
    EXPECT_EQ(loaded.sets[s].bootstrap_rank, original.sets[s].bootstrap_rank);
    EXPECT_EQ(loaded.sets[s].urls, original.sets[s].urls);
    EXPECT_EQ(loaded.sets[s].page_indices, original.sets[s].page_indices);
  }
}

TEST(SerializationTest, CsvHasOneRowPerUrl) {
  const std::string csv = to_csv(sample_list());
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            1u + sample_list().total_urls());
  EXPECT_NE(csv.find("alpha.com,1,landing,0,https://www.alpha.com/"),
            std::string::npos);
  EXPECT_NE(csv.find("beta.org,5,internal,2,"), std::string::npos);
}

TEST(SerializationTest, RejectsBadHeader) {
  std::istringstream in("nope\n");
  EXPECT_THROW(read_csv(in), std::runtime_error);
}

TEST(SerializationTest, RejectsWrongFieldCount) {
  EXPECT_THROW(
      from_csv("domain,bootstrap_rank,kind,page_index,url\na,b,c\n"),
      std::runtime_error);
}

TEST(SerializationTest, RejectsOrphanInternalUrl) {
  EXPECT_THROW(
      from_csv("domain,bootstrap_rank,kind,page_index,url\n"
               "a.com,1,internal,3,https://a.com/x\n"),
      std::runtime_error);
}

TEST(SerializationTest, RejectsBadRankOrKindOrUrl) {
  const std::string header = "domain,bootstrap_rank,kind,page_index,url\n";
  EXPECT_THROW(from_csv(header + "a.com,xx,landing,0,https://a.com/\n"),
               std::runtime_error);
  EXPECT_THROW(from_csv(header + "a.com,1,weird,0,https://a.com/\n"),
               std::runtime_error);
  EXPECT_THROW(from_csv(header + "a.com,1,landing,0,not-a-url\n"),
               std::runtime_error);
}

TEST(SerializationTest, SkipsEmptyLines) {
  const HisparList loaded =
      from_csv("domain,bootstrap_rank,kind,page_index,url\n\n"
               "a.com,1,landing,0,https://a.com/\n\n");
  EXPECT_EQ(loaded.sets.size(), 1u);
}

TEST(SerializationTest, RejectsBadPageIndex) {
  EXPECT_THROW(
      from_csv("domain,bootstrap_rank,kind,page_index,url\n"
               "a.com,1,landing,xx,https://a.com/\n"),
      std::runtime_error);
  EXPECT_THROW(
      from_csv("domain,bootstrap_rank,kind,page_index,url\n"
               "a.com,1,landing,,https://a.com/\n"),
      std::runtime_error);
}

TEST(SerializationTest, TruncatedFileDetected) {
  // A download cut off mid-row must not silently yield a shorter list.
  const std::string csv = to_csv(sample_list());
  // Cut inside the final row's URL scheme: unparsable URL.
  EXPECT_THROW(from_csv(csv.substr(0, csv.rfind("https") + 2)),
               std::runtime_error);
  // Cut before the URL field entirely: wrong field count.
  const auto last_row = csv.rfind("beta.org,5,internal");
  EXPECT_THROW(from_csv(csv.substr(0, last_row + 14)), std::runtime_error);
  // A file cut inside the header is a bad header.
  EXPECT_THROW(from_csv(csv.substr(0, 10)), std::runtime_error);
}

TEST(SerializationTest, JsonContainsStructure) {
  const std::string json = to_json(sample_list());
  EXPECT_NE(json.find("\"name\":\"sample\""), std::string::npos);
  EXPECT_NE(json.find("\"week\":3"), std::string::npos);
  EXPECT_NE(json.find("\"domain\":\"alpha.com\""), std::string::npos);
  EXPECT_NE(json.find("https://www.alpha.com/news/item-4"),
            std::string::npos);
}

TEST(SerializationTest, FileRoundTrip) {
  const std::string path = "/tmp/hispar_serialization_test.csv";
  save_csv(sample_list(), path);
  const HisparList loaded = load_csv(path);
  EXPECT_EQ(loaded.sets.size(), 2u);
  EXPECT_EQ(loaded.total_urls(), sample_list().total_urls());
  EXPECT_THROW(load_csv("/nonexistent/dir/x.csv"), std::runtime_error);
}

TEST(SerializationTest, SaveCsvReportsFailedWrites) {
  // /dev/full opens fine and fails every write.
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "/dev/full is absent";
  EXPECT_THROW(save_csv(sample_list(), "/dev/full"), std::runtime_error);
}

// --- Campaign checkpoints ---

SiteObservation sample_observation() {
  SiteObservation site;
  site.domain = "alpha.com";
  site.bootstrap_rank = 7;
  site.category = hispar::web::SiteCategory::kShopping;
  site.total_retries = 3;
  site.landing.bytes = 123456.75;
  site.landing.plt_ms = 0.1 + 0.2;  // not exactly representable
  site.landing.mix_fractions[2] = 1.0 / 3.0;
  site.landing.depth_counts[1] = 17.0;
  site.landing.is_http = true;
  site.landing.header_bidding = true;
  site.landing.third_parties = {"cdn.tracker.net", "ads.example"};
  site.landing.wait_samples_ms = {1.25, 9.5, 1e-17};
  PageMetrics internal;
  internal.bytes = 99.0;
  internal.mixed_content = true;
  site.internals.push_back(internal);
  site.outcomes.push_back({0, 1, 2, hispar::browser::LoadStatus::kDegraded,
                           hispar::net::FaultKind::kHttp5xx, 1});
  site.outcomes.push_back({4, 0, 1, hispar::browser::LoadStatus::kOk,
                           hispar::net::FaultKind::kNone, 0});
  return site;
}

std::string checkpoint_with(const std::vector<std::size_t>& positions,
                            const std::vector<SiteObservation>& observations,
                            std::uint64_t digest = 42) {
  std::ostringstream os;
  write_checkpoint_header(os, kCampaignCheckpointTag, digest);
  append_checkpoint_shard(os, 0, positions, observations);
  return os.str();
}

TEST(CheckpointTest, RoundTripIsExact) {
  std::vector<SiteObservation> observations(3);
  observations[1] = sample_observation();
  SiteObservation quarantined;
  quarantined.domain = "dead.example";
  quarantined.quarantined = true;
  quarantined.outcomes.push_back({0, 0, 3,
                                  hispar::browser::LoadStatus::kFailed,
                                  hispar::net::FaultKind::kDnsTimeout, 1});
  observations[2] = quarantined;

  std::istringstream in(checkpoint_with({1, 2}, observations));
  const CampaignCheckpoint checkpoint = read_checkpoint(in);
  EXPECT_EQ(checkpoint.config_digest, 42u);
  ASSERT_EQ(checkpoint.completed_shards.size(), 1u);
  EXPECT_EQ(checkpoint.completed_shards[0], 0u);
  ASSERT_EQ(checkpoint.observations.size(), 2u);

  const auto& [position, loaded] = checkpoint.observations[0];
  const SiteObservation& original = observations[1];
  EXPECT_EQ(position, 1u);
  EXPECT_EQ(loaded.domain, original.domain);
  EXPECT_EQ(loaded.bootstrap_rank, original.bootstrap_rank);
  EXPECT_EQ(loaded.category, original.category);
  EXPECT_EQ(loaded.total_retries, original.total_retries);
  EXPECT_FALSE(loaded.quarantined);
  EXPECT_EQ(loaded.outcomes, original.outcomes);
  EXPECT_EQ(loaded.landing.bytes, original.landing.bytes);
  EXPECT_EQ(loaded.landing.plt_ms, original.landing.plt_ms);  // exact
  EXPECT_EQ(loaded.landing.mix_fractions, original.landing.mix_fractions);
  EXPECT_EQ(loaded.landing.depth_counts, original.landing.depth_counts);
  EXPECT_EQ(loaded.landing.is_http, original.landing.is_http);
  EXPECT_EQ(loaded.landing.header_bidding, original.landing.header_bidding);
  EXPECT_EQ(loaded.landing.third_parties, original.landing.third_parties);
  EXPECT_EQ(loaded.landing.wait_samples_ms,
            original.landing.wait_samples_ms);
  ASSERT_EQ(loaded.internals.size(), 1u);
  EXPECT_EQ(loaded.internals[0].bytes, 99.0);
  EXPECT_TRUE(loaded.internals[0].mixed_content);

  const auto& [dead_position, dead] = checkpoint.observations[1];
  EXPECT_EQ(dead_position, 2u);
  EXPECT_TRUE(dead.quarantined);
  EXPECT_EQ(dead.outcomes, quarantined.outcomes);
}

TEST(CheckpointTest, RejectsBadHeader) {
  std::istringstream empty("");
  EXPECT_THROW(read_checkpoint(empty), std::runtime_error);
  std::istringstream wrong("hispar csv header\n");
  EXPECT_THROW(read_checkpoint(wrong), std::runtime_error);
  std::istringstream version("hispar-checkpoint,v9,1\n");
  EXPECT_THROW(read_checkpoint(version), std::runtime_error);
  std::istringstream digest("hispar-checkpoint,v1,notanumber\n");
  EXPECT_THROW(read_checkpoint(digest), std::runtime_error);
}

TEST(CheckpointTest, DiscardsTornTrailingBlockOnly) {
  std::vector<SiteObservation> observations(2);
  observations[0] = sample_observation();
  const std::string complete = checkpoint_with({0}, observations);
  // A kill tore the next block mid-record: the complete block survives.
  std::istringstream in(complete + "shard,1,2\nsite,1,torn.example,9");
  const CampaignCheckpoint checkpoint = read_checkpoint(in);
  ASSERT_EQ(checkpoint.completed_shards.size(), 1u);
  EXPECT_EQ(checkpoint.observations.size(), 1u);
}

TEST(CheckpointTest, RejectsMalformedCompleteRecords) {
  std::vector<SiteObservation> observations(1);
  observations[0] = sample_observation();
  const std::string good = checkpoint_with({0}, observations);

  // Corrupting any complete (endshard-terminated) record must throw,
  // never silently drop data.
  const auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string bad = good;
    const auto at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    std::istringstream in(bad);
    EXPECT_THROW(read_checkpoint(in), std::runtime_error) << from;
  };
  corrupt("site,0,", "site,zero,");         // bad position
  corrupt("metrics,", "measured,");         // unknown record type
  corrupt("outcome,0,1,2,1,", "outcome,0,1,2,9,");  // status out of range
  corrupt("outcome,4,0,1,0,0,0", "outcome,4,0,1,0,250,0");  // bad kind
  // A site claiming more internals than are present overruns into the
  // endshard line.
  {
    std::string bad = good;
    const auto at = bad.find(",1,2,1\n");  // n_internals,n_outcomes,landing
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, 7, ",6,2,1\n");
    std::istringstream in(bad);
    EXPECT_THROW(read_checkpoint(in), std::runtime_error);
  }
}

}  // namespace
