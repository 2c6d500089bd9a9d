#include "browser/qoe.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/url.h"
#include "web/generator.h"

namespace {

using namespace hispar;

// A hand-built page whose two images share one URL: a large image
// discovered by the root, and a small one discovered by parsing the
// large one (so it is fetched after the large one finishes). Joining
// HAR entries to objects by URL would hand both objects the later
// entry's timing; the join is by HarEntry::object_index.
web::WebPage duplicate_url_page() {
  web::WebPage page;
  page.url = *util::parse_url("https://www.dup.example/");
  const auto object = [&](const std::string& url, web::MimeCategory mime,
                          double bytes, int parent) {
    web::WebObject o;
    o.url = url;
    o.host = "www.dup.example";
    o.mime = mime;
    o.size_bytes = bytes;
    o.parent_index = parent;
    o.depth = parent < 0
                  ? 0
                  : page.objects[static_cast<std::size_t>(parent)].depth + 1;
    page.objects.push_back(o);
  };
  object("https://www.dup.example/", web::MimeCategory::kHtmlCss, 20e3, -1);
  object("https://www.dup.example/hero.jpg", web::MimeCategory::kImage, 1e6, 0);
  object("https://www.dup.example/hero.jpg", web::MimeCategory::kImage, 10e3,
         1);
  return page;
}

const browser::HarEntry& entry_of(const browser::LoadResult& result,
                                  std::uint32_t object_index) {
  for (const auto& entry : result.har.entries)
    if (entry.object_index == object_index) return entry;
  throw std::logic_error("no HAR entry for the object");
}

class QoeTest : public ::testing::Test {
 protected:
  QoeTest()
      : web_({120, 29, 150, false}),
        latency_(),
        cdn_(web_.cdn_registry(), latency_),
        resolver_({}, latency_),
        loader_({&latency_, &web_.cdn_registry(), &cdn_, &resolver_,
                 net::Region::kNorthAmerica}) {}

  web::SyntheticWeb web_;
  net::LatencyModel latency_;
  cdn::CdnHierarchy cdn_;
  net::CachingResolver resolver_;
  browser::PageLoader loader_;
};

TEST_F(QoeTest, MetricsAreOrdered) {
  const auto page = web_.site_by_rank(3).page(0);
  const auto result = loader_.load(page, util::Rng(1));
  const auto qoe = browser::qoe_metrics(page, result);
  EXPECT_DOUBLE_EQ(qoe.first_paint_ms, result.plt_ms);
  EXPECT_GE(qoe.visual_complete_90_ms, qoe.first_paint_ms);
  EXPECT_GE(qoe.visual_complete_ms, qoe.visual_complete_90_ms);
  EXPECT_GT(qoe.time_to_interactive_ms, qoe.first_paint_ms);
}

TEST_F(QoeTest, VisualCompleteWithinOnLoadNeighborhood) {
  const auto page = web_.site_by_rank(7).page(1);
  const auto result = loader_.load(page, util::Rng(2));
  const auto qoe = browser::qoe_metrics(page, result);
  EXPECT_LE(qoe.visual_complete_ms, result.on_load_ms + 1.0);
}

TEST_F(QoeTest, JsHeavyPagesInteractLater) {
  // TTI grows with JavaScript bytes beyond first paint.
  const auto page = web_.site_by_rank(5).page(1);
  const auto result = loader_.load(page, util::Rng(3));
  const auto qoe = browser::qoe_metrics(page, result);
  double js_bytes = 0.0;
  for (const auto& o : page.objects)
    if (o.mime == web::MimeCategory::kJavaScript) js_bytes += o.size_bytes;
  EXPECT_NEAR(qoe.time_to_interactive_ms - qoe.first_paint_ms,
              js_bytes * 2.5e-4 +
                  3.0 * static_cast<double>(std::count_if(
                            page.objects.begin(), page.objects.end(),
                            [](const web::WebObject& o) {
                              return o.mime ==
                                     web::MimeCategory::kJavaScript;
                            })),
              1.0);
}

TEST_F(QoeTest, MismatchedInputsRejected) {
  const auto page_a = web_.site_by_rank(3).page(1);
  const auto page_b = web_.site_by_rank(3).page(2);
  const auto result = loader_.load(page_a, util::Rng(1));
  EXPECT_THROW(browser::qoe_metrics(page_b, result), std::invalid_argument);
}

TEST_F(QoeTest, ObjectsSharingAUrlKeepTheirOwnTimings) {
  const web::WebPage page = duplicate_url_page();
  const auto result = loader_.load(page, util::Rng(4));
  ASSERT_EQ(result.status, browser::LoadStatus::kOk);
  const double large_done = entry_of(result, 1).finished_at_ms();
  const double small_done = entry_of(result, 2).finished_at_ms();
  ASSERT_LT(large_done, small_done);
  // The large image alone carries 90% of the visual weight, so the page
  // is 90% visually complete when it (not its small namesake) lands.
  const auto qoe = browser::qoe_metrics(page, result);
  EXPECT_DOUBLE_EQ(qoe.visual_complete_90_ms,
                   std::max(large_done, result.plt_ms));
  EXPECT_DOUBLE_EQ(qoe.visual_complete_ms, std::max(small_done, result.plt_ms));
}

}  // namespace
