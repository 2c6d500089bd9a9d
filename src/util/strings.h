// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hispar::util {

std::vector<std::string> split(std::string_view s, char sep);
std::string join(const std::vector<std::string>& parts, std::string_view sep);
std::string lower(std::string_view s);
bool contains_ci(std::string_view haystack, std::string_view needle);

// Simple glob match supporting '*' (any run, including empty) and '?'
// (any single char). Used by the CDN host-pattern heuristics; also the
// reference util::LiteralSet (the compiled tracker and header-bidding
// lists) is tested against.
bool glob_match(std::string_view pattern, std::string_view text);

// "1234567" -> "1,234,567" for table output.
std::string with_thousands(long long v);

// Format a byte count human-readably ("1.4 MB").
std::string format_bytes(double bytes);

}  // namespace hispar::util
