#include "browser/adblock.h"

namespace hispar::browser {

AdBlocker AdBlocker::easylist_lite() { return AdBlocker(standard_filters()); }

std::vector<std::string> AdBlocker::easylist_lite_patterns() {
  // Pattern syntax: `*literal*` globs over the full URL. The list
  // mirrors the structure of EasyList: well-known tracker/ad hosts plus
  // generic path/subdomain rules.
  return {
      // Curated head services (see web/thirdparty.cpp).
      "*google-analytics.com*",
      "*googletagmanager.com*",
      "*doubleclick.net*",
      "*connect.facebook.net*",
      "*platform.twitter.com*",
      "*js-agent.newrelic.com*",
      "*criteo.net*",
      "*adnxs.com*",
      "*casalemedia.com*",
      "*pubmatic.com*",
      "*rubiconproject.com*",
      "*amazon-adsystem.com*",
      "*bat.bing.com*",
      "*analytics.tiktok.com*",
      "*scorecardresearch.com*",
      "*optimizely.com*",
      "*snap.licdn.com*",
      "*stats.wp.com*",
      "*segment.com*",
      "*hotjar.com*",
      // Generic rules (synthetic tail naming conventions).
      "*://pixel.*",
      "*://ads.*",
      "*://bid.*",
      "*://metrics.*",
      "*/track/*",
  };
}

AdBlocker::AdBlocker(std::vector<std::string> patterns)
    : filters_(std::make_shared<const util::LiteralSet>(patterns)) {}

std::size_t AdBlocker::count_blocked(const HarLog& log) const {
  std::size_t count = 0;
  for (const auto& entry : log.entries)
    if (matches(entry.url)) ++count;
  return count;
}

}  // namespace hispar::browser
