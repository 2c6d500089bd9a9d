// EasyList-style ad/tracker request matcher.
//
// §6.3: "To detect advertisement and tracking related requests, we used
// the Brave Browser Adblock library coupled with Easylist... We counted
// all HTTP requests on a web page that would have been blocked." This is
// a filter-list matcher over request URLs: it knows nothing about the
// generator's ground-truth flags, mirroring how a real ad-blocker
// classifies purely from URL patterns.
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

class AdBlocker {
 public:
  // The bundled filter list: domain-anchor and path patterns covering
  // the curated third-party head plus the synthetic tail's naming
  // conventions (pixel./ads./bid./metrics. hosts, /track/ paths).
  static AdBlocker easylist_lite();
  // The `*literal*` patterns easylist_lite() compiles.
  static std::vector<std::string> easylist_lite_patterns();

  // Every pattern must have the form `*literal*` ("the URL contains
  // literal"); any other shape throws std::invalid_argument. The
  // patterns get a filter set of their own.
  explicit AdBlocker(std::vector<std::string> patterns);

  // True if a request to `url` would be blocked.
  bool matches(std::string_view url) const { return tags(url) != 0; }

  // kTrackerTag if a request to `url` would be blocked, else 0.
  std::uint32_t tags(std::string_view url) const {
    return filters_->flags(url, kTrackerTag);
  }

  // Number of entries in `log` that the filter list blocks (the paper's
  // "tracking requests" count).
  std::size_t count_blocked(const HarLog& log) const;

  std::size_t pattern_count() const { return filters_->size(0); }

  // The compiled set this blocker views (shared by the standard
  // detectors, see filters.h).
  const FilterSet& filters() const { return filters_; }

 private:
  explicit AdBlocker(FilterSet filters) : filters_(std::move(filters)) {}

  FilterSet filters_;  // the tracker list at kTrackerTag
};

}  // namespace hispar::browser
