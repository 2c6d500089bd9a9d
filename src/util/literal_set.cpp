#include "util/literal_set.h"

#include <algorithm>
#include <stdexcept>

namespace hispar::util {

namespace {

std::uint16_t pair_key(unsigned char first, unsigned char second) {
  return static_cast<std::uint16_t>(first << 8 | second);
}

}  // namespace

LiteralSet::LiteralSet(const std::vector<std::string>& patterns)
    : size_(patterns.size()) {
  for (const std::string& pattern : patterns) {
    const std::string_view literal =
        pattern.size() >= 3 && pattern.front() == '*' && pattern.back() == '*'
            ? std::string_view(pattern).substr(1, pattern.size() - 2)
            : std::string_view();
    if (literal.empty() || literal.find_first_of("*?") != literal.npos)
      throw std::invalid_argument("LiteralSet: pattern '" + pattern +
                                  "' is not of the form *literal*");
    const auto first = static_cast<unsigned char>(literal[0]);
    if (literal.size() == 1) {
      single_[first] = true;
      continue;
    }
    const std::uint16_t key =
        pair_key(first, static_cast<unsigned char>(literal[1]));
    pairs_[key] = true;
    table_.push_back({key, std::string(literal)});
  }
  std::stable_sort(
      table_.begin(), table_.end(),
      [](const Entry& a, const Entry& b) { return a.key < b.key; });
}

bool LiteralSet::any(std::string_view text) const {
  const auto* bytes = reinterpret_cast<const unsigned char*>(text.data());
  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (single_[bytes[i]]) return true;
    if (i + 1 == n) break;
    const std::uint16_t key = pair_key(bytes[i], bytes[i + 1]);
    if (!pairs_[key]) continue;
    const std::string_view rest = text.substr(i);
    auto entry = std::lower_bound(
        table_.begin(), table_.end(), key,
        [](const Entry& e, std::uint16_t k) { return e.key < k; });
    for (; entry != table_.end() && entry->key == key; ++entry)
      if (rest.starts_with(entry->literal)) return true;
  }
  return false;
}

}  // namespace hispar::util
