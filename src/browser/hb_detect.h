// Header-bidding detection (§6.3).
//
// The paper uses the open-source tools from Aqeel et al., "Untangling
// Header Bidding Lore" (PAM'20) to find pages running client-side ad
// auctions. Detection works from the HAR alone: a page runs header
// bidding if it issues bid requests to two or more known HB exchange
// endpoints before the ad is served; ad slots are approximated by the
// number of distinct ad-network creative requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "browser/filters.h"
#include "browser/har.h"

namespace hispar::browser {

struct HbResult {
  bool header_bidding = false;
  std::size_t exchanges_contacted = 0;  // distinct HB endpoints
  std::size_t ad_slots = 0;
};

class HbDetector {
 public:
  static HbDetector standard();
  // The `*literal*` lists standard() compiles: known header-bidding
  // exchanges, and ad networks serving the creatives.
  static std::vector<std::string> standard_exchange_patterns();
  static std::vector<std::string> standard_ad_network_patterns();

  // Both lists take `*literal*` patterns only (see AdBlocker); they get
  // a filter set of their own.
  explicit HbDetector(std::vector<std::string> exchange_patterns,
                      std::vector<std::string> ad_network_patterns);

  HbResult analyze(const HarLog& log) const;

  // Per-URL classification analyze() is built from, as tag bits:
  // kHbExchangeTag if the URL matches an exchange pattern, kHbCreativeTag
  // if it matches an ad-network pattern; one LiteralSet pass. Exposed so
  // callers that see the same URL many times can memoize the verdict
  // and replicate analyze()'s distinct-host / distinct-URL aggregation
  // themselves.
  std::uint32_t tags(std::string_view url) const {
    return filters_->flags(url, kHbExchangeTag | kHbCreativeTag);
  }

  // The compiled set this detector views (shared by the standard
  // detectors, see filters.h).
  const FilterSet& filters() const { return filters_; }

 private:
  explicit HbDetector(FilterSet filters) : filters_(std::move(filters)) {}

  FilterSet filters_;  // exchanges at kHbExchangeTag, creatives at
                       // kHbCreativeTag
};

}  // namespace hispar::browser
