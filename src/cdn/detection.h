// CDN detection heuristics (cdnfinder-style).
//
// §5.1: "To determine whether a particular HTTP request was served
// through a CDN, we used multiple heuristics (e.g., domain-name patterns,
// HTTP headers, DNS CNAMEs, and reverse DNS lookup)." We implement the
// same three signal classes over the registry's patterns. Detection is
// intentionally independent of ground truth: the analysis pipeline only
// sees what a real measurement tool would see.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cdn/provider.h"

namespace hispar::cdn {

// Observable facts about one fetched object, as a HAR-reading tool has
// them. The host and CNAME are views: the caller keeps their strings
// alive for the classify() call.
struct ObservedFetch {
  std::string_view host;                       // request host
  std::optional<std::string_view> dns_cname;   // CNAME chain tail, if any
  std::vector<std::string> response_headers;   // "name: value" lines
};

struct DetectionResult {
  bool via_cdn = false;
  int provider_id = -1;          // valid iff via_cdn
  std::string matched_signal;    // "host-pattern" / "cname" / "header"
};

class CdnDetector {
 public:
  explicit CdnDetector(const CdnRegistry& registry);

  DetectionResult classify(const ObservedFetch& fetch) const;

 private:
  const CdnRegistry* registry_;
};

}  // namespace hispar::cdn
