#include "browser/hb_detect.h"

#include <set>

namespace hispar::browser {

HbDetector HbDetector::standard() { return HbDetector(standard_filters()); }

std::vector<std::string> HbDetector::standard_exchange_patterns() {
  return {
      // Known header-bidding exchanges (prebid adapters).
      "*ib.adnxs.com*",
      "*casalemedia.com*",
      "*hbopenbid.pubmatic.com*",
      "*fastlane.rubiconproject.com*",
      "*c.amazon-adsystem.com*",
      "*://bid.*",
  };
}

std::vector<std::string> HbDetector::standard_ad_network_patterns() {
  return {
      "*doubleclick.net*",
      "*criteo.net*",
      "*://ads.*",
  };
}

HbDetector::HbDetector(std::vector<std::string> exchange_patterns,
                       std::vector<std::string> ad_network_patterns)
    : filters_(std::make_shared<const util::LiteralSet>(
          std::vector<std::vector<std::string>>{
              {}, std::move(exchange_patterns),
              std::move(ad_network_patterns)})) {}

HbResult HbDetector::analyze(const HarLog& log) const {
  std::set<std::string_view> exchanges;
  std::set<std::string_view> creatives;
  for (const auto& entry : log.entries) {
    const std::uint32_t url_tags = tags(entry.url);
    if ((url_tags & kHbExchangeTag) != 0) exchanges.insert(entry.host);
    // One creative request per URL; distinct URLs ~ slots.
    if ((url_tags & kHbCreativeTag) != 0) creatives.insert(entry.url);
  }
  HbResult result;
  result.exchanges_contacted = exchanges.size();
  // Client-side auctions hit multiple exchanges from the page itself.
  result.header_bidding = exchanges.size() >= 2;
  result.ad_slots = creatives.size();  // one creative request per slot
  return result;
}

}  // namespace hispar::browser
