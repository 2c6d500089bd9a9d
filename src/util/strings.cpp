#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace hispar::util {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

bool contains_ci(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  // Compares folded bytes in place, the same std::tolower folding
  // lower() applies, so nothing is copied.
  const auto fold = [](char c) {
    return std::tolower(static_cast<unsigned char>(c));
  };
  return std::search(haystack.begin(), haystack.end(), needle.begin(),
                     needle.end(), [&](char a, char b) {
                       return fold(a) == fold(b);
                     }) != haystack.end();
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative two-pointer algorithm with backtracking on the last '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, match = 0;
  while (t < text.size()) {
    // A pattern '*' is always a wildcard, even against a literal '*'
    // in the text.
    if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = t;
    } else if (p < pattern.size() &&
               (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string with_thousands(long long v) {
  const bool neg = v < 0;
  std::string digits = std::to_string(neg ? -v : v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out += ',';
    out += *it;
    ++count;
  }
  if (neg) out += '-';
  std::reverse(out.begin(), out.end());
  return out;
}

std::string format_bytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f %s", bytes, units[u]);
  return buf;
}

}  // namespace hispar::util
