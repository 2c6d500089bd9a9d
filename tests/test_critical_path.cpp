#include "browser/critical_path.h"

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

class CriticalPathTest : public ::testing::Test {
 protected:
  CriticalPathTest()
      : web_({120, 19, 150, false}),
        latency_(),
        cdn_(web_.cdn_registry(), latency_),
        resolver_({}, latency_),
        loader_({&latency_, &web_.cdn_registry(), &cdn_, &resolver_,
                 net::Region::kNorthAmerica}) {}

  browser::LoadResult load(const web::WebPage& page, std::uint64_t seed = 1) {
    return loader_.load(page, util::Rng(seed));
  }

  web::SyntheticWeb web_;
  net::LatencyModel latency_;
  cdn::CdnHierarchy cdn_;
  net::CachingResolver resolver_;
  browser::PageLoader loader_;
};

TEST_F(CriticalPathTest, PathStartsAtRootAndEndsAtOnLoad) {
  const auto page = web_.site_by_rank(4).page(1);
  const auto result = load(page);
  const auto path = browser::critical_path(page, result);
  ASSERT_FALSE(path.object_indices.empty());
  EXPECT_EQ(path.object_indices.front(), 0);
  EXPECT_NEAR(path.length_ms, result.on_load_ms, 1e-6);
  EXPECT_EQ(path.hops, static_cast<int>(path.object_indices.size()) - 1);
  EXPECT_GT(path.fetch_ms, 0.0);
}

TEST_F(CriticalPathTest, PathFollowsParentEdges) {
  const auto page = web_.site_by_rank(4).page(1);
  const auto result = load(page);
  const auto path = browser::critical_path(page, result);
  for (std::size_t i = 1; i < path.object_indices.size(); ++i) {
    const auto child = static_cast<std::size_t>(path.object_indices[i]);
    EXPECT_EQ(page.objects[child].parent_index, path.object_indices[i - 1]);
  }
}

TEST_F(CriticalPathTest, MismatchedResultRejected) {
  const auto page_a = web_.site_by_rank(4).page(1);
  const auto page_b = web_.site_by_rank(4).page(2);
  const auto result = load(page_a);
  EXPECT_THROW(browser::critical_path(page_b, result),
               std::invalid_argument);
}

TEST_F(CriticalPathTest, PushFlattensDependencies) {
  const auto page = web_.site_by_rank(4).page(0);
  const auto pushed = browser::push_all_objects(page);
  ASSERT_EQ(pushed.objects.size(), page.objects.size());
  for (std::size_t i = 1; i < pushed.objects.size(); ++i) {
    EXPECT_EQ(pushed.objects[i].depth, 1);
    EXPECT_EQ(pushed.objects[i].parent_index, 0);
  }
  EXPECT_EQ(pushed.objects[0].depth, 0);
  // Sizes and hosts untouched.
  EXPECT_DOUBLE_EQ(pushed.total_bytes(), page.total_bytes());
}

TEST_F(CriticalPathTest, PushShortensDeepPageLoads) {
  // Flattening dependencies must never slow a page down and should help
  // pages with deep chains (§5.4's premise).
  double baseline_total = 0.0, pushed_total = 0.0;
  for (std::size_t rank : {2ul, 5ul, 9ul, 14ul}) {
    const auto page = web_.site_by_rank(rank).page(0);
    const auto baseline = load(page, 3);
    const auto pushed_page = browser::push_all_objects(page);
    const auto pushed = load(pushed_page, 3);
    baseline_total += baseline.on_load_ms;
    pushed_total += pushed.on_load_ms;
  }
  EXPECT_LT(pushed_total, baseline_total);
}

TEST_F(CriticalPathTest, AddedHintsAreVisible) {
  const auto page = web_.site_by_rank(4).page(1);
  const auto hinted = browser::with_added_hints(page, 5, 3);
  EXPECT_EQ(hinted.hints.dns_prefetch, page.hints.dns_prefetch + 5);
  EXPECT_EQ(hinted.hints.preconnect, page.hints.preconnect + 3);
}

TEST_F(CriticalPathTest, AddedHintsDoNotSlowTheLoad) {
  const auto page = web_.site_by_rank(6).page(1);
  const auto baseline = load(page, 9);
  const auto hinted_page = browser::with_added_hints(page, 10, 6);
  const auto hinted = load(hinted_page, 9);
  // DNS time can only shrink when more hosts are prefetched.
  EXPECT_LE(hinted.dns_time_ms, baseline.dns_time_ms + 1e-9);
}

TEST_F(CriticalPathTest, ObjectsSharingAUrlKeepTheirOwnTimings) {
  const web::WebPage page = duplicate_url_page();
  const auto result = load(page, 4);
  ASSERT_EQ(result.status, browser::LoadStatus::kOk);
  // The small image is discovered by parsing the large one, so the
  // path that defined onLoad runs root -> large -> small.
  const auto path = browser::critical_path(page, result);
  EXPECT_EQ(path.object_indices, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(path.hops, 2);
  EXPECT_DOUBLE_EQ(path.length_ms, entry_of(result, 2).finished_at_ms());
  EXPECT_DOUBLE_EQ(path.fetch_ms, entry_of(result, 0).timings.total() +
                                      entry_of(result, 1).timings.total() +
                                      entry_of(result, 2).timings.total());
}

}  // namespace
