#include "util/strings.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/intern.h"
#include "util/literal_set.h"

namespace {

using namespace hispar::util;

TEST(Split, Basic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, EmptySegmentsPreserved) {
  const auto parts = split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(join(parts, "::"), "x::y::z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Lower, MixedCase) { EXPECT_EQ(lower("AbC1!"), "abc1!"); }

TEST(ContainsCi, CaseInsensitive) {
  // contains_ci folds in place; each case is also checked against
  // lowering both sides into copies and searching.
  struct Case {
    std::string_view haystack;
    std::string_view needle;
    bool expected;
  };
  using namespace std::string_view_literals;
  const Case cases[] = {
      {"X-Cache: HIT", "x-cache", true},
      {"anything", "", true},
      {"abc", "abd", false},
      {"Application/JavaScript", "jAVAsCRIPT", true},  // mixed both sides
      {"TEXT/HTML", "html", true},
      {"text/css", "CSS", true},
      {"image/png", "PNG ", false},
      {"", "", true},  // empty needle, even in an empty haystack
      {"abc", "", true},
      {"", "a", false},
      {"font", "font/woff2", false},  // needle longer than the haystack
      {"woff", "woff", true},
      {"caf\xc9", "caf\xc9", true},  // high bytes compare as themselves
      {"CAF\xc9", "caf\xc9", true},
      {"caf\xc9", "caf\xe9", false},  // and are not case-folded
      {"\x80\xff", "\xFF", true},
      {"a\0B"sv, "\0b"sv, true},  // an embedded NUL is an ordinary byte
      {"a\0B"sv, "ab", false},
      {"abab\0c"sv, "B\0C"sv, true},
      {"aaab", "AAB", true},  // a partial match restarts correctly
  };
  for (const Case& c : cases) {
    const std::string where =
        "'" + std::string(c.haystack) + "' / '" + std::string(c.needle) + "'";
    EXPECT_EQ(contains_ci(c.haystack, c.needle), c.expected) << where;
    EXPECT_EQ(lower(c.haystack).find(lower(c.needle)) != std::string::npos,
              c.expected)
        << where;
  }
}

TEST(WithThousands, FormatsGroups) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
  EXPECT_EQ(with_thousands(-9876), "-9,876");
}

TEST(FormatBytes, PicksUnits) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KB");
  EXPECT_EQ(format_bytes(1.5 * 1024 * 1024), "1.5 MB");
}

struct GlobCase {
  const char* pattern;
  const char* text;
  bool expected;
};

// Print by value: the default printer dumps the object's bytes, pointers
// included, so discovered test names would change from run to run.
void PrintTo(const GlobCase& c, std::ostream* os) {
  *os << c.pattern << " ~ " << c.text;
}

class GlobMatch : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobMatch, MatchesExpected) {
  const auto& c = GetParam();
  EXPECT_EQ(glob_match(c.pattern, c.text), c.expected)
      << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, GlobMatch,
    ::testing::Values(
        GlobCase{"abc", "abc", true}, GlobCase{"abc", "abd", false},
        GlobCase{"*", "", true}, GlobCase{"*", "anything", true},
        GlobCase{"a*c", "abbbc", true}, GlobCase{"a*c", "ac", true},
        GlobCase{"a*c", "ab", false}, GlobCase{"?x", "ax", true},
        GlobCase{"?x", "x", false},
        GlobCase{"*.akamaiedge.net", "e123.akamaiedge.net", true},
        GlobCase{"*.akamaiedge.net", "akamaiedge.net.evil.com", false},
        GlobCase{"*google-analytics.com*",
                 "https://www.google-analytics.com/collect", true},
        GlobCase{"*/track/*", "https://pixel.thirdparty9.com/track/1-0",
                 true},
        GlobCase{"*://ads.*", "https://ads.thirdparty4.com/lib/2", true},
        GlobCase{"*://ads.*", "https://www.ads-site.com/", false},
        GlobCase{"a*b*c", "aXbYc", true}, GlobCase{"a*b*c", "acb", false},
        // A pattern '*' stays a wildcard against a literal '*' in text.
        GlobCase{"*m*", "**m", true}, GlobCase{"a*c", "a*xc", true}));

// LiteralSet compiles only `*literal*` globs; every other shape is
// refused by name rather than silently matched differently.
class LiteralSetRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(LiteralSetRejects, NamesThePattern) {
  const std::string bad = GetParam();
  try {
    LiteralSet({"*ok*", bad});
    FAIL() << "accepted '" << bad << "'";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("'" + bad + "'"),
              std::string::npos)
        << error.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LiteralSetRejects,
                         ::testing::Values("", "*", "**", "a*", "*a",
                                           "*a*b*", "*a?b*"));

TEST(LiteralSet, MatchesAnywhereIncludingBothEnds) {
  const LiteralSet set({"*://ads.*", "*/track/*", "*q*"});
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.any("https://ads.example.com/"));
  EXPECT_TRUE(set.any("/track/ at the start"));
  EXPECT_TRUE(set.any("at the end /track/"));
  EXPECT_TRUE(set.any("q"));
  EXPECT_FALSE(set.any("https://www.ads-site.com/tracker"));
  EXPECT_FALSE(set.any(""));
}

TEST(LiteralSet, SharedKeysAndOverlapsAllChecked) {
  // "ab", "abc" and "abd" share the key "ab"; "bc" overlaps "abc".
  const LiteralSet set({"*abc*", "*abd*", "*bc*"});
  EXPECT_TRUE(set.any("xxabdxx"));
  EXPECT_TRUE(set.any("xbcx"));
  EXPECT_FALSE(set.any("ab"));
  EXPECT_FALSE(set.any("abxbxc"));
}

TEST(LiteralSet, HighBytesAndNulIndexAsUnsigned) {
  const LiteralSet set({std::string("*\xff\x80*"), std::string("*\0*", 3)});
  EXPECT_TRUE(set.any("a\xff\x80" "b"));
  EXPECT_FALSE(set.any("a\x80\xff" "b"));
  EXPECT_TRUE(set.any(std::string_view("a\0b", 3)));
  EXPECT_FALSE(set.any("ab"));
}

TEST(LiteralSet, EachListSetsItsOwnTagBit) {
  const std::vector<std::vector<std::string>> lists = {
      {"*tracker*", "*/px/*"}, {"*bid.*"}, {"*ads.*", "*q*"}};
  const LiteralSet set(lists);
  EXPECT_EQ(set.size(), 5u);
  EXPECT_EQ(set.size(0), 2u);
  EXPECT_EQ(set.size(1), 1u);
  EXPECT_EQ(set.size(2), 2u);
  EXPECT_EQ(set.flags("https://bid.example/"), 2u);
  EXPECT_EQ(set.flags("https://tracker.bid.example/px/"), 3u);
  EXPECT_EQ(set.flags("https://www.example/"), 0u);
  EXPECT_EQ(set.flags("q"), 4u);  // one-byte literal
  EXPECT_EQ(set.flags("https://ads.bid.tracker/"), 7u);
  EXPECT_TRUE(set.any("https://ads.example/"));
  EXPECT_FALSE(set.any("https://www.example/"));
}

TEST(LiteralSet, LiteralSharedByListsSetsEveryBit) {
  // "*ads.*" is in lists 0 and 2 and compiles to one entry with both
  // tags; list 1 is empty, so its bit is never set.
  const std::vector<std::vector<std::string>> lists = {
      {"*ads.*"}, {}, {"*ads.*", "*q*"}};
  const LiteralSet set(lists);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.size(1), 0u);
  EXPECT_EQ(set.flags("https://ads.example/"), 5u);
  EXPECT_EQ(set.flags("q"), 4u);
  EXPECT_EQ(set.flags("https://ads.example/q"), 5u);
}

TEST(LiteralSet, WantedMaskLimitsTheBits) {
  const std::vector<std::vector<std::string>> lists = {
      {"*a*"}, {"*bc*"}, {"*cd*"}};
  const LiteralSet set(lists);
  EXPECT_EQ(set.flags("abcd"), 7u);
  EXPECT_EQ(set.flags("abcd", 1u), 1u);
  EXPECT_EQ(set.flags("abcd", 6u), 6u);
  EXPECT_EQ(set.flags("abcd", 0u), 0u);
  EXPECT_EQ(set.flags("bcd", 5u), 4u);
  EXPECT_EQ(set.flags("abcd", 8u), 0u);  // no list 3
}

TEST(LiteralSet, TooManyListsThrow) {
  const std::vector<std::vector<std::string>> lists(LiteralSet::kMaxLists + 1);
  EXPECT_THROW(LiteralSet{lists}, std::invalid_argument);
  const std::vector<std::vector<std::string>> most(LiteralSet::kMaxLists,
                                                   {"*z*"});
  EXPECT_EQ(LiteralSet(most).flags("z"), 0xffffffffu);
}

TEST(LiteralSet, EmptySetMatchesNothing) {
  const LiteralSet set(std::vector<std::string>{});
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.any("anything"));
}

TEST(SymbolTable, IdsAreDenseInInsertionOrder) {
  hispar::util::SymbolTable table;
  EXPECT_EQ(table.intern("alpha"), 0u);
  EXPECT_EQ(table.intern("beta"), 1u);
  EXPECT_EQ(table.intern("alpha"), 0u);  // re-intern is a lookup
  EXPECT_EQ(table.intern("gamma"), 2u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(SymbolTable, FindDoesNotInsert) {
  hispar::util::SymbolTable table;
  EXPECT_EQ(table.find("missing"), hispar::util::SymbolTable::kNpos);
  EXPECT_EQ(table.size(), 0u);
  table.intern("present");
  EXPECT_EQ(table.find("present"), 0u);
  EXPECT_EQ(table.find("missing"), hispar::util::SymbolTable::kNpos);
}

TEST(SymbolTable, EmptyStringIsAValidSymbol) {
  hispar::util::SymbolTable table;
  EXPECT_EQ(table.intern(""), 0u);
  EXPECT_EQ(table.intern(""), 0u);
  EXPECT_EQ(table.view(0), "");
}

TEST(SymbolTable, RoundTripsThroughGrowthAndKeepsViewsStable) {
  // Push far past the initial slot count so the open-addressing table
  // rehashes several times; every id and view must survive, and views
  // taken before growth must stay valid (storage is address-stable).
  hispar::util::SymbolTable table;
  const std::string_view early = table.view(table.intern("domain0.com"));
  std::vector<std::string> names;
  for (int i = 0; i < 2000; ++i)
    names.push_back("domain" + std::to_string(i) + ".com");
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(table.intern(names[i]), static_cast<std::uint32_t>(i));
  EXPECT_EQ(table.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(table.find(names[i]), static_cast<std::uint32_t>(i));
    EXPECT_EQ(table.view(static_cast<std::uint32_t>(i)), names[i]);
  }
  EXPECT_EQ(early, "domain0.com");
}

TEST(SymbolTable, HashCollisionsAreResolvedByStringCompare) {
  // The table compares stored bytes before declaring a hit, so strings
  // that collide in the hash (or land in each other's probe chains)
  // still get distinct ids. Exercise with many near-identical keys of
  // the shapes the campaign interns (URLs differing in one character).
  hispar::util::SymbolTable table;
  std::vector<std::string> urls;
  for (int site = 0; site < 40; ++site)
    for (int object = 0; object < 40; ++object)
      urls.push_back("https://cdn" + std::to_string(site) +
                     ".example.com/asset/" + std::to_string(object));
  for (std::size_t i = 0; i < urls.size(); ++i)
    ASSERT_EQ(table.intern(urls[i]), static_cast<std::uint32_t>(i));
  // Second pass: every key resolves to its original id, none inserted.
  for (std::size_t i = 0; i < urls.size(); ++i)
    ASSERT_EQ(table.intern(urls[i]), static_cast<std::uint32_t>(i));
  EXPECT_EQ(table.size(), urls.size());
}

TEST(SymbolTable, StringsLongerThanOneBlockRoundTrip) {
  hispar::util::SymbolTable table;
  constexpr std::size_t kBlock = hispar::util::SymbolTable::kBlockBytes;
  const std::string small = "https://www.example.com/";
  const std::string exact(kBlock, 'e');
  const std::string huge = std::string(3 * kBlock + 7, 'h') + "tail";
  const std::string huge_twin = std::string(3 * kBlock + 7, 'h') + "tail!";
  EXPECT_EQ(table.intern(small), 0u);
  EXPECT_EQ(table.intern(huge), 1u);
  EXPECT_EQ(table.intern(exact), 2u);
  EXPECT_EQ(table.intern(huge_twin), 3u);
  EXPECT_EQ(table.intern("after"), 4u);
  EXPECT_EQ(table.intern(huge), 1u);
  EXPECT_EQ(table.find(huge_twin), 3u);
  EXPECT_EQ(table.view(0), small);
  EXPECT_EQ(table.view(1), huge);
  EXPECT_EQ(table.view(2), exact);
  EXPECT_EQ(table.view(3), huge_twin);
  EXPECT_EQ(table.view(4), "after");
}

TEST(SymbolTable, EarlyViewsStayByteEqualAcrossManyBlocks) {
  // Fill well over a hundred arena blocks with URL-shaped keys of
  // varying length; every view handed out along the way must still read
  // back its bytes (under ASan this also checks no view dangles).
  hispar::util::SymbolTable table;
  std::vector<std::string> keys;
  std::vector<std::string_view> views;
  std::size_t bytes = 0;
  for (int i = 0; bytes < 130 * hispar::util::SymbolTable::kBlockBytes; ++i) {
    std::string key = "https://cdn" + std::to_string(i % 97) +
                      ".example.com/" + std::string(i % 300, 'p') +
                      std::to_string(i);
    bytes += key.size();
    views.push_back(table.view(table.intern(key)));
    keys.push_back(std::move(key));
  }
  ASSERT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(views[i], keys[i]) << i;
    ASSERT_EQ(table.view(static_cast<std::uint32_t>(i)).data(),
              views[i].data());
  }
}

TEST(SymbolTable, EqualLengthKeysWithASharedPrefixGetDistinctIds) {
  // Same length, same first 8..63 bytes: differ only in the last word
  // or the last byte, so the word-wise hash must see the tail.
  hispar::util::SymbolTable table;
  std::vector<std::string> keys;
  for (std::size_t length : {9u, 16u, 17u, 63u, 64u})
    for (char last : {'a', 'b', 'A', '\0', '\xff'}) {
      std::string key(length, 'k');
      key.back() = last;
      keys.push_back(key);
    }
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(table.intern(keys[i]), static_cast<std::uint32_t>(i));
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(table.find(keys[i]), static_cast<std::uint32_t>(i));
  // Trailing NULs change the key.
  EXPECT_NE(table.intern(std::string("k\0", 2)),
            table.intern(std::string("k\0\0", 3)));
}

TEST(SymbolTable, ClearResetsToEmpty) {
  hispar::util::SymbolTable table;
  table.intern("a");
  table.intern("b");
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find("a"), hispar::util::SymbolTable::kNpos);
  EXPECT_EQ(table.intern("b"), 0u);  // ids restart from zero
  // Again after filling several arena blocks: the arena is freed too,
  // and re-interned strings read back their own bytes.
  for (int i = 0; i < 5000; ++i)
    table.intern("https://site" + std::to_string(i) + ".example/");
  table.clear();
  EXPECT_EQ(table.find("https://site0.example/"),
            hispar::util::SymbolTable::kNpos);
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "https://other" + std::to_string(i) + ".example/";
    ASSERT_EQ(table.intern(key), static_cast<std::uint32_t>(i));
    ASSERT_EQ(table.view(static_cast<std::uint32_t>(i)), key);
  }
  EXPECT_EQ(table.find("b"), hispar::util::SymbolTable::kNpos);
}

}  // namespace
