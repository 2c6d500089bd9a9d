// The §6.3 filter lists as tag bits of one compiled util::LiteralSet.
//
// AdBlocker (tracker list) and HbDetector (exchange and creative lists)
// are views over a shared, immutable LiteralSet: each compiles its
// lists at the fixed tag bits below, so the verdicts of one URL under
// both detectors fit in one flags() word. The standard factories
// (AdBlocker::easylist_lite(), HbDetector::standard()) share a single
// set holding all three lists, so one pass over a URL classifies it for
// both; detectors built from custom lists hold a set each, and their
// tags are the OR of one pass per set.
#pragma once

#include <cstdint>
#include <memory>

#include "util/literal_set.h"

namespace hispar::browser {

// List i of a filter set is compiled at bit 1 << i.
enum FilterTag : std::uint32_t {
  kTrackerTag = 1u << 0,     // AdBlocker: the request would be blocked
  kHbExchangeTag = 1u << 1,  // HbDetector: a header-bidding exchange
  kHbCreativeTag = 1u << 2,  // HbDetector: an ad-network creative
};

using FilterSet = std::shared_ptr<const util::LiteralSet>;

// The bundled tracker, exchange and creative lists, compiled once at
// their tags and shared by every standard detector.
const FilterSet& standard_filters();

}  // namespace hispar::browser
