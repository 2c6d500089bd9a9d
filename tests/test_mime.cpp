#include "web/mime.h"

#include <gtest/gtest.h>

#include <set>

namespace {

using namespace hispar::web;

TEST(Mime, RoundTripsThroughRepresentativeType) {
  for (MimeCategory category : all_mime_categories()) {
    if (category == MimeCategory::kUnknown) continue;
    EXPECT_EQ(categorize_mime_type(representative_mime_type(category)),
              category)
        << to_string(category);
  }
}

struct MimeCase {
  const char* type;
  MimeCategory expected;
};

// Print by value: the default printer dumps the object's bytes, pointer
// included, so discovered test names would change from run to run.
void PrintTo(const MimeCase& c, std::ostream* os) {
  *os << c.type << " -> " << to_string(c.expected);
}

class Categorize : public ::testing::TestWithParam<MimeCase> {};

TEST_P(Categorize, MapsConcreteTypes) {
  EXPECT_EQ(categorize_mime_type(GetParam().type), GetParam().expected)
      << GetParam().type;
}

INSTANTIATE_TEST_SUITE_P(
    ConcreteTypes, Categorize,
    ::testing::Values(
        MimeCase{"text/html; charset=utf-8", MimeCategory::kHtmlCss},
        MimeCase{"text/css", MimeCategory::kHtmlCss},
        MimeCase{"application/javascript", MimeCategory::kJavaScript},
        MimeCase{"text/javascript", MimeCategory::kJavaScript},
        MimeCase{"application/json", MimeCategory::kJson},
        MimeCase{"image/png", MimeCategory::kImage},
        MimeCase{"image/svg+xml", MimeCategory::kImage},
        MimeCase{"audio/ogg", MimeCategory::kAudio},
        MimeCase{"video/webm", MimeCategory::kVideo},
        MimeCase{"font/woff2", MimeCategory::kFont},
        MimeCase{"application/x-font-truetype", MimeCategory::kFont},
        MimeCase{"application/octet-stream", MimeCategory::kData},
        MimeCase{"text/csv", MimeCategory::kData},
        MimeCase{"application/weird", MimeCategory::kUnknown}));

TEST(Mime, NineCategories) {
  // §5.2: nine categories.
  EXPECT_EQ(kMimeCategoryCount, 9);
  std::set<std::string_view> names;
  for (MimeCategory category : all_mime_categories())
    names.insert(to_string(category));
  EXPECT_EQ(names.size(), 9u);
}

TEST(Mime, VisualCategories) {
  EXPECT_TRUE(is_visual(MimeCategory::kImage));
  EXPECT_TRUE(is_visual(MimeCategory::kHtmlCss));
  EXPECT_TRUE(is_visual(MimeCategory::kVideo));
  EXPECT_FALSE(is_visual(MimeCategory::kJavaScript));
  EXPECT_FALSE(is_visual(MimeCategory::kJson));
  EXPECT_FALSE(is_visual(MimeCategory::kAudio));
}

TEST(Mime, DefaultCacheability) {
  // Static assets cache; documents and API payloads do not.
  EXPECT_TRUE(default_cacheable(MimeCategory::kImage));
  EXPECT_TRUE(default_cacheable(MimeCategory::kJavaScript));
  EXPECT_TRUE(default_cacheable(MimeCategory::kFont));
  EXPECT_FALSE(default_cacheable(MimeCategory::kHtmlCss));
  EXPECT_FALSE(default_cacheable(MimeCategory::kJson));
}

}  // namespace
