// String interning: a symbol table mapping strings to dense ids.
//
// The measurement hot path keys several per-shard maps (DNS cache
// entries, the HAR detectors' URL / fetch-tuple / host memos) by
// domain/URL strings; every lookup re-hashes the same strings many
// times per campaign. A SymbolTable assigns each distinct string a
// stable uint32 id in insertion order, so hot maps can key on integers
// instead.
//
// Storage: interned bytes are copied into an arena of fixed-size blocks
// (a string longer than one block gets a block of its own), and an
// id -> string_view vector points into it. Blocks are never moved or
// freed before clear(), so views stay valid across later intern() calls,
// and interning a new string costs no allocation of its own. Lookups
// hash a word (8 bytes) at a time into an open-addressing table.
//
// Determinism: ids depend only on the sequence of intern() calls, which
// on the measurement path is a pure function of (list, seed, shards) —
// never of --jobs — because each shard owns its own table. Nothing ever
// iterates the hash table, so neither the hash function nor bucket
// order is observable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace hispar::util {

class SymbolTable {
 public:
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  // Arena block size; longer strings get a block sized to fit.
  static constexpr std::size_t kBlockBytes = 16 * 1024;

  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Returns the id of `s`, inserting it on first sight. Ids are dense:
  // the first distinct string gets 0, the next 1, and so on.
  std::uint32_t intern(std::string_view s);

  // Id of `s` if already interned, kNpos otherwise.
  std::uint32_t find(std::string_view s) const;

  // The string behind an id; valid until clear() (storage is
  // address-stable, so views survive later intern() calls).
  std::string_view view(std::uint32_t id) const;

  std::size_t size() const { return views_.size(); }
  // Forgets every string and frees the arena; the next intern() gets
  // id 0 again.
  void clear();

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t id = kNpos;  // kNpos marks an empty slot
  };

  void grow();
  // Index of the slot holding `s`, or of the empty slot it would take.
  std::size_t locate(std::string_view s, std::uint32_t hash) const;
  // Copies `s` into the arena and returns the copy.
  std::string_view store(std::string_view s);

  std::vector<Slot> slots_;
  std::vector<std::string_view> views_;  // id -> bytes in blocks_
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* free_ = nullptr;     // unused tail of the current block
  std::size_t free_bytes_ = 0;
};

}  // namespace hispar::util
