// One-pass substring matcher for the §6.3 filter lists.
//
// The tracker list (browser::AdBlocker) and the header-bidding exchange
// and creative lists (browser::HbDetector) are globs of the single
// shape `*L*`: "the URL contains L". Walking each glob over every HAR
// URL costs one backtracking scan per pattern. A LiteralSet compiles a
// whole list into byte-indexed tables and answers "does any literal
// occur?" in one left-to-right pass over the text, the way production
// filter engines bucket their rules by a short token.
//
// Index: literals of two or more bytes are keyed by their first two
// bytes, with a 65536-bit map saying which keys exist and a table of
// (key, literal) pairs sorted by key that is searched only on a map
// hit. One-byte literals live in a 256-bit first-byte map. Bytes are
// read as unsigned char throughout, so bytes >= 0x80 and NUL index like
// any other.
//
// util::glob_match stays the reference: any(t) equals "some pattern p
// has glob_match(p, t)" for every text (tests/test_properties.cpp and
// hispar_fuzz's `literals` target check this).
#pragma once

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hispar::util {

class LiteralSet {
 public:
  // Compiles glob patterns of the form `*L*`, where L is non-empty and
  // holds no '*' or '?'. Throws std::invalid_argument naming the first
  // pattern of any other shape.
  explicit LiteralSet(const std::vector<std::string>& patterns);

  // True if some literal occurs in `text`.
  bool any(std::string_view text) const;

  // Number of patterns compiled (duplicates included).
  std::size_t size() const { return size_; }

 private:
  struct Entry {
    std::uint16_t key;  // first two bytes, big-endian
    std::string literal;
  };

  std::bitset<256> single_;   // one-byte literals
  std::bitset<65536> pairs_;  // keys present in table_
  std::vector<Entry> table_;  // literals of >= 2 bytes, sorted by key
  std::size_t size_ = 0;
};

}  // namespace hispar::util
