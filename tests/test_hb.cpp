#include "browser/hb_detect.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <string_view>

namespace {

using namespace hispar::browser;

// HAR entries borrow their strings, and entry_for() is called with
// temporaries: park every URL here so the entries' views stay valid for
// the whole test binary (a deque never moves its elements).
HarEntry entry_for(const std::string& url) {
  static std::deque<std::string> urls;
  const std::string_view owned = urls.emplace_back(url);
  HarEntry entry;
  entry.url = owned;
  const auto host_start = owned.find("//") + 2;
  entry.host =
      owned.substr(host_start, owned.find('/', host_start) - host_start);
  return entry;
}

TEST(HbDetectorTest, TwoExchangesMeanHeaderBidding) {
  const auto detector = HbDetector::standard();
  HarLog log;
  log.entries.push_back(entry_for("https://ib.adnxs.com/ut/v3/prebid"));
  log.entries.push_back(
      entry_for("https://hbopenbid.pubmatic.com/translator"));
  const auto result = detector.analyze(log);
  EXPECT_TRUE(result.header_bidding);
  EXPECT_EQ(result.exchanges_contacted, 2u);
}

TEST(HbDetectorTest, SingleExchangeIsNotAnAuction) {
  const auto detector = HbDetector::standard();
  HarLog log;
  log.entries.push_back(entry_for("https://ib.adnxs.com/ut/v3/prebid"));
  const auto result = detector.analyze(log);
  EXPECT_FALSE(result.header_bidding);
  EXPECT_EQ(result.exchanges_contacted, 1u);
}

TEST(HbDetectorTest, PlainAdsDoNotTriggerHb) {
  const auto detector = HbDetector::standard();
  HarLog log;
  log.entries.push_back(entry_for("https://ad.doubleclick.net/adx/slot1"));
  log.entries.push_back(entry_for("https://static.criteo.net/js/ld.js"));
  const auto result = detector.analyze(log);
  EXPECT_FALSE(result.header_bidding);
  EXPECT_GE(result.ad_slots, 1u);
}

TEST(HbDetectorTest, AdSlotsCountDistinctCreatives) {
  const auto detector = HbDetector::standard();
  HarLog log;
  log.entries.push_back(entry_for("https://ads.thirdparty1.com/track/1"));
  log.entries.push_back(entry_for("https://ads.thirdparty1.com/track/2"));
  log.entries.push_back(entry_for("https://ads.thirdparty1.com/track/2"));
  const auto result = detector.analyze(log);
  EXPECT_EQ(result.ad_slots, 2u);  // duplicate URL counted once
}

TEST(HbDetectorTest, GenericBidSubdomainsMatch) {
  const auto detector = HbDetector::standard();
  HarLog log;
  log.entries.push_back(entry_for("https://bid.thirdparty5.com/track/0"));
  log.entries.push_back(entry_for("https://bid.thirdparty9.com/track/0"));
  EXPECT_TRUE(detector.analyze(log).header_bidding);
}

TEST(HbDetectorTest, EmptyLogIsClean) {
  const auto detector = HbDetector::standard();
  const auto result = detector.analyze(HarLog{});
  EXPECT_FALSE(result.header_bidding);
  EXPECT_EQ(result.ad_slots, 0u);
  EXPECT_EQ(result.exchanges_contacted, 0u);
}

TEST(HbDetectorTest, FirstPartyContentIgnored) {
  const auto detector = HbDetector::standard();
  HarLog log;
  log.entries.push_back(entry_for("https://www.example.com/asset/1"));
  log.entries.push_back(entry_for("https://img.example.com/hero.jpg"));
  const auto result = detector.analyze(log);
  EXPECT_FALSE(result.header_bidding);
  EXPECT_EQ(result.ad_slots, 0u);
}

}  // namespace
