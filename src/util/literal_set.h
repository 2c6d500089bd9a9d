// One-pass, tagged substring matcher for the §6.3 filter lists.
//
// The tracker list (browser::AdBlocker) and the header-bidding exchange
// and creative lists (browser::HbDetector) are globs of the single
// shape `*L*`: "the URL contains L". Walking each glob over every HAR
// URL costs one backtracking scan per pattern. A LiteralSet compiles
// several such lists into one set of byte-indexed tables, giving list i
// the tag bit 1 << i, and answers "which lists have a literal that
// occurs?" in one left-to-right pass over the text, the way production
// filter engines bucket their rules by a short token. The pass stops
// as soon as every wanted list has matched.
//
// Index: literals of two or more bytes are keyed by their first two
// bytes, with a 65536-bit map saying which keys exist and a table of
// (key, tags, literal) entries sorted by key that is searched only on a
// map hit. One-byte literals live in a 256-entry first-byte tag table.
// Bytes are read as unsigned char throughout, so bytes >= 0x80 and NUL
// index like any other.
//
// util::glob_match stays the reference: bit i of flags(t) equals "some
// pattern p of list i has glob_match(p, t)" for every text
// (tests/test_properties.cpp and hispar_fuzz's `literals` target check
// this).
#pragma once

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hispar::util {

class LiteralSet {
 public:
  static constexpr std::size_t kMaxLists = 32;

  // Compiles lists of glob patterns of the form `*L*`, where L is
  // non-empty and holds no '*' or '?'; list i gets tag bit 1 << i (an
  // empty list's bit is never set). Throws std::invalid_argument naming
  // the first pattern of any other shape, or if there are more than
  // kMaxLists lists.
  explicit LiteralSet(std::span<const std::vector<std::string>> lists);
  // One list, tag bit 0.
  explicit LiteralSet(const std::vector<std::string>& patterns);

  // The tag bits, among `wanted`, of the lists with a literal occurring
  // in `text`. Stops scanning once every wanted bit that some list can
  // set has been found.
  std::uint32_t flags(std::string_view text,
                      std::uint32_t wanted = 0xffffffffu) const;

  // True if some literal occurs in `text`.
  bool any(std::string_view text) const { return flags(text) != 0; }

  // Number of patterns compiled, in all lists or in list `list`
  // (duplicates included).
  std::size_t size() const;
  std::size_t size(std::size_t list) const { return list_sizes_.at(list); }

 private:
  struct Entry {
    std::uint16_t key;   // first two bytes, big-endian
    std::uint32_t tags;  // lists holding this literal
    std::string literal;
  };

  std::array<std::uint32_t, 256> single_{};  // one-byte literals' tags
  std::bitset<65536> pairs_;                 // keys present in table_
  std::vector<Entry> table_;  // literals of >= 2 bytes, sorted by key
  std::uint32_t settable_ = 0;  // bits of the non-empty lists
  std::vector<std::size_t> list_sizes_;
};

}  // namespace hispar::util
