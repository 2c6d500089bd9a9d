#include "browser/filters.h"

#include <string>
#include <vector>

#include "browser/adblock.h"
#include "browser/hb_detect.h"

namespace hispar::browser {

const FilterSet& standard_filters() {
  static const FilterSet set = std::make_shared<const util::LiteralSet>(
      std::vector<std::vector<std::string>>{
          AdBlocker::easylist_lite_patterns(),
          HbDetector::standard_exchange_patterns(),
          HbDetector::standard_ad_network_patterns()});
  return set;
}

}  // namespace hispar::browser
