// Byte-capacity LRU cache.
//
// Used for the deterministic layer of the CDN cache hierarchy (objects we
// fetched recently during a measurement run stay hot) and directly
// unit-tested; the probabilistic layer on top is in hierarchy.h.
//
// Keys are taken as views and copied once, into the list node that
// holds the entry; the hash index keys on a view of that node's string.
// List nodes never move (splice relinks them), so the views stay valid
// until the entry is evicted, and the index is erased first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

namespace hispar::cdn {

class LruCache {
 public:
  explicit LruCache(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {
    if (capacity_ == 0) throw std::invalid_argument("LruCache: capacity 0");
  }

  // Returns true (and refreshes recency) if `key` is cached.
  bool touch(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  bool contains(std::string_view key) const { return index_.count(key); }

  // Inserts `key` with `size` bytes, evicting LRU entries as needed, and
  // returns whether `key` was cached before the call (so touch() then
  // insert() of one key is a single lookup). Objects larger than the
  // capacity are not admitted; growing an existing entry past the
  // capacity evicts it (keeping the old bytes would misstate what the
  // cache holds).
  bool insert(std::string_view key, std::size_t size) {
    auto it = index_.find(key);
    const bool cached = it != index_.end();
    if (size > capacity_) {
      if (cached) {
        used_ -= it->second->size;
        const auto node = it->second;
        index_.erase(it);
        order_.erase(node);
      }
      return cached;
    }
    if (cached) {
      used_ -= it->second->size;
      it->second->size = size;
      used_ += size;
      order_.splice(order_.begin(), order_, it->second);
    } else {
      order_.push_front(Entry{std::string(key), size});
      index_.emplace(order_.front().key, order_.begin());
      used_ += size;
    }
    while (used_ > capacity_) evict_one();
    return cached;
  }

  std::size_t used_bytes() const { return used_; }
  std::size_t capacity_bytes() const { return capacity_; }
  std::size_t entries() const { return index_.size(); }
  // Entries evicted over the cache's lifetime (not reset by clear());
  // the observability layer reports this as cache-pressure evidence.
  std::uint64_t evictions() const { return evictions_; }

  void clear() {
    index_.clear();
    order_.clear();
    used_ = 0;
  }

 private:
  struct Entry {
    std::string key;
    std::size_t size;
  };

  void evict_one() {
    const Entry& victim = order_.back();
    used_ -= victim.size;
    index_.erase(victim.key);
    order_.pop_back();
    ++evictions_;
  }

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<Entry> order_;
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
};

}  // namespace hispar::cdn
