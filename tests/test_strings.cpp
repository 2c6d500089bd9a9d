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
  EXPECT_TRUE(contains_ci("X-Cache: HIT", "x-cache"));
  EXPECT_TRUE(contains_ci("anything", ""));
  EXPECT_FALSE(contains_ci("abc", "abd"));
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

TEST(SymbolTable, ClearResetsToEmpty) {
  hispar::util::SymbolTable table;
  table.intern("a");
  table.intern("b");
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find("a"), hispar::util::SymbolTable::kNpos);
  EXPECT_EQ(table.intern("b"), 0u);  // ids restart from zero
}

}  // namespace
