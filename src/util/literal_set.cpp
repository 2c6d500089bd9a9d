#include "util/literal_set.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace hispar::util {

namespace {

std::uint16_t pair_key(unsigned char first, unsigned char second) {
  return static_cast<std::uint16_t>(first << 8 | second);
}

}  // namespace

LiteralSet::LiteralSet(std::span<const std::vector<std::string>> lists) {
  if (lists.size() > kMaxLists)
    throw std::invalid_argument("LiteralSet: more than " +
                                std::to_string(kMaxLists) + " lists");
  for (std::size_t list = 0; list < lists.size(); ++list) {
    const std::uint32_t tag = std::uint32_t{1} << list;
    list_sizes_.push_back(lists[list].size());
    if (!lists[list].empty()) settable_ |= tag;
    for (const std::string& pattern : lists[list]) {
      const std::string_view literal =
          pattern.size() >= 3 && pattern.front() == '*' &&
                  pattern.back() == '*'
              ? std::string_view(pattern).substr(1, pattern.size() - 2)
              : std::string_view();
      if (literal.empty() || literal.find_first_of("*?") != literal.npos)
        throw std::invalid_argument("LiteralSet: pattern '" + pattern +
                                    "' is not of the form *literal*");
      const auto first = static_cast<unsigned char>(literal[0]);
      if (literal.size() == 1) {
        single_[first] |= tag;
        continue;
      }
      const std::uint16_t key =
          pair_key(first, static_cast<unsigned char>(literal[1]));
      pairs_[key] = true;
      table_.push_back({key, tag, std::string(literal)});
    }
  }
  // One entry per distinct literal, carrying the tags of every list
  // that holds it, so a literal shared by several lists is compared
  // once.
  std::sort(table_.begin(), table_.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.literal < b.literal;
  });
  std::vector<Entry> merged;
  for (Entry& entry : table_) {
    if (!merged.empty() && merged.back().literal == entry.literal)
      merged.back().tags |= entry.tags;
    else
      merged.push_back(std::move(entry));
  }
  table_ = std::move(merged);
}

LiteralSet::LiteralSet(const std::vector<std::string>& patterns)
    : LiteralSet(std::span(&patterns, 1)) {}

std::uint32_t LiteralSet::flags(std::string_view text,
                                std::uint32_t wanted) const {
  const std::uint32_t goal = wanted & settable_;
  std::uint32_t found = 0;
  if (goal == 0) return found;
  const auto* bytes = reinterpret_cast<const unsigned char*>(text.data());
  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    found |= single_[bytes[i]] & goal;
    if (found == goal || i + 1 == n) break;
    const std::uint16_t key = pair_key(bytes[i], bytes[i + 1]);
    if (!pairs_[key]) continue;
    const std::string_view rest = text.substr(i);
    auto entry = std::lower_bound(
        table_.begin(), table_.end(), key,
        [](const Entry& e, std::uint16_t k) { return e.key < k; });
    for (; entry != table_.end() && entry->key == key; ++entry) {
      // Only lists not yet matched can add a bit.
      if ((entry->tags & goal & ~found) == 0) continue;
      if (rest.starts_with(entry->literal)) found |= entry->tags & goal;
    }
    if (found == goal) break;
  }
  return found;
}

std::size_t LiteralSet::size() const {
  return std::accumulate(list_sizes_.begin(), list_sizes_.end(),
                         std::size_t{0});
}

}  // namespace hispar::util
