#include "browser/har.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "browser/loader.h"
#include "net/faults.h"
#include "net/outage.h"
#include "util/rng.h"
#include "web/generator.h"

namespace {

using namespace hispar::browser;
using hispar::util::Scheme;

HarLog make_log() {
  HarLog log;
  log.page_url = "https://www.example.com/";
  HarEntry root;
  root.url = "https://www.example.com/";
  root.host = "www.example.com";
  root.scheme = Scheme::kHttps;
  root.body_size = 1000;
  HarEntry asset;
  asset.url = "https://static.example.com/a.js";
  asset.host = "static.example.com";
  asset.scheme = Scheme::kHttps;
  asset.body_size = 2000;
  log.entries = {root, asset};
  return log;
}

TEST(HarTimingsTest, TotalSumsPhases) {
  HarTimings timings{1, 2, 3, 4, 5, 6, 7};
  EXPECT_DOUBLE_EQ(timings.total(), 28.0);
}

TEST(HarEntryTest, FinishedAtIncludesAllPhases) {
  HarEntry entry;
  entry.started_at_ms = 100.0;
  entry.timings.dns = 10.0;
  entry.timings.wait = 20.0;
  EXPECT_DOUBLE_EQ(entry.finished_at_ms(), 130.0);
}

TEST(HarLogTest, Aggregates) {
  const HarLog log = make_log();
  EXPECT_DOUBLE_EQ(log.total_bytes(), 3000.0);
  EXPECT_EQ(log.object_count(), 2u);
  EXPECT_EQ(log.unique_domains(), 2u);
}

TEST(HarLogTest, MixedContentDetection) {
  HarLog log = make_log();
  EXPECT_FALSE(log.has_mixed_content());
  HarEntry insecure;
  insecure.url = "http://img.example.com/x.jpg";
  insecure.host = "img.example.com";
  insecure.scheme = Scheme::kHttp;
  log.entries.push_back(insecure);
  EXPECT_TRUE(log.has_mixed_content());
}

TEST(HarLogTest, HttpPageIsNotMixed) {
  HarLog log = make_log();
  log.entries[0].scheme = Scheme::kHttp;  // page itself is HTTP
  log.entries[1].scheme = Scheme::kHttp;
  EXPECT_FALSE(log.has_mixed_content());
}

TEST(HarJson, ContainsSpecFields) {
  HarLog log = make_log();
  log.nav.on_load_ms = 1234.5;
  log.entries[0].response_headers.x_cache = XCache::kHit;
  const std::string json = to_har_json(log);
  EXPECT_NE(json.find("\"version\":\"1.2\""), std::string::npos);
  EXPECT_NE(json.find("\"onLoad\":1234.5"), std::string::npos);
  EXPECT_NE(json.find("static.example.com"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"x-cache\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":\"HIT\""), std::string::npos);
  EXPECT_NE(json.find("\"timings\""), std::string::npos);
}

TEST(HarJson, EscapesStrings) {
  HarLog log;
  log.page_url = "https://x.com/\"quote\"";
  HarEntry entry;
  entry.url = "https://x.com/path\\back";
  log.entries.push_back(entry);
  const std::string json = to_har_json(log);
  EXPECT_NE(json.find("\\\"quote\\\""), std::string::npos);
  EXPECT_NE(json.find("path\\\\back"), std::string::npos);
}

TEST(HarJson, SignatureWithAValueKeepsItsOwnValue) {
  HarLog log = make_log();
  log.entries[0].response_headers.cdn_signature = "via: 1.1 google";
  log.entries[1].response_headers.cdn_signature = "x-served-by";
  std::vector<std::string> names;
  std::vector<std::string> values;
  log.entries[0].response_headers.for_each_line(
      [&](std::string_view name, std::string_view value) {
        names.emplace_back(name);
        values.emplace_back(value);
      });
  EXPECT_EQ(names, std::vector<std::string>{"via"});
  EXPECT_EQ(values, std::vector<std::string>{"1.1 google"});
  const std::string json = to_har_json(log);
  EXPECT_NE(json.find("{\"name\":\"via\",\"value\":\"1.1 google\"}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"x-served-by\",\"value\":\"present\"}"),
            std::string::npos);
  EXPECT_EQ(json.find("1.1 google: present"), std::string::npos);
}

// --- Exporter byte pins ---------------------------------------------
//
// to_har_json is the one place a HAR leaves the process as text, and
// no golden covers it otherwise. These tests load fixed generated pages
// and pin the FNV-1a digest of the exported JSON, so any change to how
// entries are held in memory must leave the exported bytes alone. The
// preconditions are read off the JSON itself (and the entries' CNAMEs)
// so they say what the pinned bytes cover: CDN signature headers,
// X-Cache headers, CNAME-carrying entries, and `_error` entries from
// every failure source (injected faults, open breakers, the watchdog).

// Recorded when HAR entries still owned copies of their strings; the
// clean pin was re-recorded when signatures that carry a value (here
// cloudflare's "server: cloudflare") stopped being exported with a
// trailing ": present" (8218 bytes, digest 15858710427077473593 before).
constexpr std::size_t kCleanBytes = 8209;
constexpr std::uint64_t kCleanDigest = 4749255858478946274u;
constexpr std::size_t kFaultedBytes = 6008;
constexpr std::uint64_t kFaultedDigest = 11440053966384058641u;

class HarJsonPin : public ::testing::Test {
 protected:
  HarJsonPin()
      : web_({120, 11, 200, false}),
        cdn_(web_.cdn_registry(), latency_),
        resolver_({"local", 1, 6.0, hispar::net::Region::kNorthAmerica, 1.0},
                  latency_),
        loader_(env()) {}

  hispar::browser::LoaderEnv env() {
    hispar::browser::LoaderEnv env;
    env.latency = &latency_;
    env.registry = &web_.cdn_registry();
    env.cdn = &cdn_;
    env.resolver = &resolver_;
    return env;
  }

  static bool has(const std::string& json, const std::string& needle) {
    return json.find(needle) != std::string::npos;
  }

  hispar::web::SyntheticWeb web_;
  hispar::net::LatencyModel latency_;
  hispar::cdn::CdnHierarchy cdn_;
  hispar::net::CachingResolver resolver_;
  PageLoader loader_;
};

TEST_F(HarJsonPin, CleanLoadBytesArePinned) {
  // The second load finds the first one's objects in the edge LRU, so
  // the HAR carries both X-Cache verdicts.
  const hispar::web::WebPage page = web_.site_by_rank(31).page(0);
  loader_.load(page, hispar::util::Rng(6));
  const LoadResult result = loader_.load(page, hispar::util::Rng(7));
  const std::string json = to_har_json(result.har);
  ASSERT_EQ(result.status, LoadStatus::kOk);
  EXPECT_TRUE(has(json, "\"name\":\"x-cache\",\"value\":\"HIT\""));
  EXPECT_TRUE(has(json, "\"name\":\"x-cache\",\"value\":\"MISS\""));
  EXPECT_TRUE(has(json, "\"value\":\"present\""));  // CDN signature
  EXPECT_TRUE(has(json, "{\"name\":\"server\",\"value\":\"cloudflare\"}"));
  std::size_t with_cname = 0;
  for (const auto& entry : result.har.entries)
    with_cname += entry.dns_cname.has_value() ? 1 : 0;
  EXPECT_GT(with_cname, 0u);
  EXPECT_EQ(json.size(), kCleanBytes);
  EXPECT_EQ(hispar::util::fnv1a(json), kCleanDigest);
}

TEST_F(HarJsonPin, FaultedLoadBytesArePinned) {
  // Each fault kind strikes 10% of the attempts and failed objects are
  // never retried; a breaker opens on the first failure, and the
  // watchdog cuts the load at 0.4 s.
  const hispar::net::FaultProfile profile =
      hispar::net::FaultProfile::uniform(0.1);
  hispar::net::FaultInjector faults(profile,
                                    hispar::util::Rng(7).fork("faults"));
  hispar::net::BreakerSet breakers(hispar::net::BreakerConfig{1, 30.0, 1});
  LoadOptions options;
  options.faults = &faults;
  options.breakers = &breakers;
  options.max_object_retries = 0;
  options.page_timeout_ms = 400.0;
  const hispar::web::WebPage page = web_.site_by_rank(11).page(0);
  const LoadResult result = loader_.load(page, hispar::util::Rng(7), options);
  const std::string json = to_har_json(result.har);
  ASSERT_EQ(result.status, LoadStatus::kDegraded);
  EXPECT_TRUE(has(json, "\"_error\":\"breaker-open\""));
  EXPECT_TRUE(has(json, "\"_error\":\"page-watchdog-abort\""));
  std::size_t injected = 0;
  for (int kind = 1; kind < hispar::net::kFaultKindCount; ++kind)
    injected += has(json, "\"_error\":\"" +
                              std::string(hispar::net::to_string(
                                  static_cast<hispar::net::FaultKind>(kind))) +
                              "\"")
                    ? 1
                    : 0;
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(json.size(), kFaultedBytes);
  EXPECT_EQ(hispar::util::fnv1a(json), kFaultedDigest);
}

}  // namespace
