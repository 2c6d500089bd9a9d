#include "util/intern.h"

#include <cstring>
#include <stdexcept>

namespace hispar::util {

namespace {

constexpr std::size_t kInitialSlots = 64;  // power of two
constexpr std::uint64_t kSeedA = 0xa0761d6478bd642full;
constexpr std::uint64_t kSeedB = 0xe7037ed1a0b428dbull;

// 64x64 -> 128-bit multiply folded back to 64 bits: every input bit
// reaches the low bits the slot index is taken from.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  const auto product = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(product) ^
         static_cast<std::uint64_t>(product >> 64);
}

// Word-at-a-time hash: one multiply per 8 bytes, the length folded into
// the seed so strings that differ only by trailing NULs differ.
std::uint32_t hash_bytes(std::string_view s) {
  const char* p = s.data();
  std::size_t n = s.size();
  std::uint64_t h = n;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = mix(word ^ kSeedA, h ^ kSeedB);
  }
  std::uint64_t tail = 0;
  if (n > 0) std::memcpy(&tail, p, n);
  return static_cast<std::uint32_t>(mix(tail ^ kSeedA, h ^ kSeedB));
}

}  // namespace

std::uint32_t SymbolTable::intern(std::string_view s) {
  if (slots_.empty()) slots_.resize(kInitialSlots);
  const std::uint32_t hash = hash_bytes(s);
  std::size_t index = locate(s, hash);
  if (slots_[index].id != kNpos) return slots_[index].id;

  // Keep the load factor under 0.7 so probe chains stay short.
  if ((views_.size() + 1) * 10 >= slots_.size() * 7) {
    grow();
    index = locate(s, hash);
  }
  const auto id = static_cast<std::uint32_t>(views_.size());
  views_.push_back(store(s));
  slots_[index] = {hash, id};
  return id;
}

std::uint32_t SymbolTable::find(std::string_view s) const {
  if (slots_.empty()) return kNpos;
  return slots_[locate(s, hash_bytes(s))].id;
}

std::string_view SymbolTable::view(std::uint32_t id) const {
  if (id >= views_.size())
    throw std::out_of_range("SymbolTable::view: unknown id");
  return views_[id];
}

void SymbolTable::clear() {
  slots_.clear();
  views_.clear();
  blocks_.clear();
  free_ = nullptr;
  free_bytes_ = 0;
}

std::size_t SymbolTable::locate(std::string_view s, std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t index = hash & mask;
  while (true) {
    const Slot& slot = slots_[index];
    // Equal hashes are not enough: distinct strings can collide, so the
    // stored string is always compared before a hit is declared.
    if (slot.id == kNpos || (slot.hash == hash && views_[slot.id] == s))
      return index;
    index = (index + 1) & mask;
  }
}

void SymbolTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNpos) continue;
    std::size_t index = slot.hash & mask;
    while (slots_[index].id != kNpos) index = (index + 1) & mask;
    slots_[index] = slot;
  }
}

std::string_view SymbolTable::store(std::string_view s) {
  if (s.size() > free_bytes_) {
    if (s.size() > kBlockBytes) {
      // Its own block; the current block keeps its free tail.
      blocks_.push_back(std::make_unique_for_overwrite<char[]>(s.size()));
      std::memcpy(blocks_.back().get(), s.data(), s.size());
      return {blocks_.back().get(), s.size()};
    }
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(kBlockBytes));
    free_ = blocks_.back().get();
    free_bytes_ = kBlockBytes;
  }
  char* const out = free_;
  if (!s.empty()) std::memcpy(out, s.data(), s.size());
  free_ += s.size();
  free_bytes_ -= s.size();
  return {out, s.size()};
}

}  // namespace hispar::util
