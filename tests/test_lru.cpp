#include "cdn/lru_cache.h"

#include <gtest/gtest.h>

#include <string>

namespace {

using hispar::cdn::LruCache;

TEST(LruCacheTest, InsertAndTouch) {
  LruCache cache(100);
  cache.insert("a", 10);
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_TRUE(cache.touch("a"));
  EXPECT_FALSE(cache.touch("b"));
  EXPECT_EQ(cache.used_bytes(), 10u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(30);
  cache.insert("a", 10);
  cache.insert("b", 10);
  cache.insert("c", 10);
  cache.insert("d", 10);  // evicts a
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("d"));
}

TEST(LruCacheTest, TouchRefreshesRecency) {
  LruCache cache(30);
  cache.insert("a", 10);
  cache.insert("b", 10);
  cache.insert("c", 10);
  EXPECT_TRUE(cache.touch("a"));  // a becomes most recent
  cache.insert("d", 10);          // evicts b, not a
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
}

TEST(LruCacheTest, OversizedObjectNotAdmitted) {
  LruCache cache(50);
  cache.insert("huge", 100);
  EXPECT_FALSE(cache.contains("huge"));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, ReinsertUpdatesSize) {
  LruCache cache(100);
  cache.insert("a", 10);
  cache.insert("a", 40);
  EXPECT_EQ(cache.used_bytes(), 40u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(LruCacheTest, OversizedUpdateEvictsStaleEntry) {
  // Regression: growing an existing key past the capacity used to
  // return early and leave the old-sized entry resident.
  LruCache cache(100);
  cache.insert("a", 10);
  cache.insert("a", 200);
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(LruCacheTest, EvictsMultipleToFit) {
  LruCache cache(30);
  cache.insert("a", 10);
  cache.insert("b", 10);
  cache.insert("c", 10);
  cache.insert("big", 25);  // must evict a, b and c
  EXPECT_TRUE(cache.contains("big"));
  EXPECT_LE(cache.used_bytes(), 30u);
}

TEST(LruCacheTest, ClearEmpties) {
  LruCache cache(100);
  cache.insert("a", 10);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_FALSE(cache.contains("a"));
}

TEST(LruCacheTest, InsertReportsWhetherTheKeyWasCached) {
  LruCache cache(30);
  EXPECT_FALSE(cache.insert("a", 10));
  EXPECT_TRUE(cache.insert("a", 10));
  EXPECT_FALSE(cache.insert("b", 10));
  EXPECT_FALSE(cache.insert("c", 10));
  // A re-insert refreshes recency like touch(): "b" is now the LRU entry.
  EXPECT_TRUE(cache.insert("a", 10));
  EXPECT_FALSE(cache.insert("d", 10));  // evicts b
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("a"));
  // An oversized update evicts the resident copy and still reports it.
  EXPECT_TRUE(cache.insert("a", 31));
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_FALSE(cache.insert("a", 31));
}

TEST(LruCacheTest, KeysOutliveTheCallersStrings) {
  // The cache copies each key once; the caller's buffer may change.
  LruCache cache(100);
  std::string key = "https://static.example.com/app.js";
  cache.insert(key, 10);
  key.assign("https://static.example.com/other.js");
  EXPECT_FALSE(cache.contains(key));
  EXPECT_TRUE(cache.contains("https://static.example.com/app.js"));
  cache.insert(key, 10);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(LruCacheTest, ZeroCapacityThrows) {
  EXPECT_THROW(LruCache(0), std::invalid_argument);
}

}  // namespace
