#include "browser/har.h"

#include <algorithm>
#include <sstream>

namespace hispar::browser {

double HarLog::total_bytes() const {
  double sum = 0.0;
  for (const auto& e : entries) sum += e.body_size;
  return sum;
}

std::string_view to_string(XCache x_cache) {
  switch (x_cache) {
    case XCache::kNone: return "";
    case XCache::kHit: return "HIT";
    case XCache::kMiss: return "MISS";
  }
  return "";
}

std::vector<std::string> ResponseHeaders::lines() const {
  std::vector<std::string> out;
  for_each_line([&](std::string_view name, std::string_view value) {
    std::string& line = out.emplace_back(name);
    line += ": ";
    line += value;
  });
  return out;
}

std::size_t HarLog::unique_domains() const {
  std::vector<std::string_view> hosts;
  hosts.reserve(entries.size());
  for (const auto& e : entries) hosts.push_back(e.host);
  std::sort(hosts.begin(), hosts.end());
  return static_cast<std::size_t>(
      std::unique(hosts.begin(), hosts.end()) - hosts.begin());
}

bool HarLog::has_mixed_content() const {
  if (entries.empty() || entries.front().scheme != util::Scheme::kHttps)
    return false;
  for (std::size_t i = 1; i < entries.size(); ++i)
    if (entries[i].scheme == util::Scheme::kHttp) return true;
  return false;
}

namespace {
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}
}  // namespace

std::string to_har_json(const HarLog& log) {
  std::ostringstream os;
  os << "{\"log\":{\"version\":\"1.2\",\"creator\":{\"name\":\"hispar-sim\","
        "\"version\":\"1.0\"},\"pages\":[{\"id\":\"page_1\",\"title\":\""
     << json_escape(log.page_url) << "\",\"pageTimings\":{\"onLoad\":"
     << log.nav.on_load_ms << ",\"_firstPaint\":" << log.nav.first_paint_ms
     << "}}],\"entries\":[";
  for (std::size_t i = 0; i < log.entries.size(); ++i) {
    const HarEntry& e = log.entries[i];
    if (i) os << ',';
    os << "{\"pageref\":\"page_1\",\"startedDateTime\":\"" << e.started_at_ms
       << "\",\"request\":{\"method\":\"" << e.request_method
       << "\",\"url\":\"" << json_escape(e.url)
       << "\"},\"response\":{\"status\":" << e.status;
    if (!e.error.empty()) os << ",\"_error\":\"" << json_escape(e.error) << '"';
    os << ",\"content\":{\"size\":" << e.body_size << ",\"mimeType\":\""
       << json_escape(e.mime_type) << "\"},\"headers\":[";
    const std::vector<std::string> headers = e.response_headers.lines();
    for (std::size_t h = 0; h < headers.size(); ++h) {
      if (h) os << ',';
      const auto& header = headers[h];
      const auto colon = header.find(':');
      const std::string name = header.substr(0, colon);
      const std::string value =
          colon == std::string::npos
              ? ""
              : header.substr(header.find_first_not_of(' ', colon + 1));
      os << "{\"name\":\"" << json_escape(name) << "\",\"value\":\""
         << json_escape(value) << "\"}";
    }
    os << "]},\"timings\":{\"blocked\":" << e.timings.blocked
       << ",\"dns\":" << e.timings.dns << ",\"connect\":" << e.timings.connect
       << ",\"ssl\":" << e.timings.ssl << ",\"send\":" << e.timings.send
       << ",\"wait\":" << e.timings.wait
       << ",\"receive\":" << e.timings.receive << "}}";
  }
  os << "]}}";
  return os.str();
}

}  // namespace hispar::browser
