// Publisher-style site audit (§7 "Involve publishers"): measure one
// site's landing page against its most-visited internal pages and
// report where the two diverge — exactly the self-check the paper asks
// content providers to run before trusting landing-page-only studies.
//
//   $ ./examples/site_audit [domain|rank] [internal_pages]
//
// Also dumps the landing page's HAR (har.json) for external tooling.
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "browser/har.h"
#include "browser/loader.h"
#include "core/analyses.h"
#include "core/measurement.h"
#include "search/engine.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace hispar;

  web::SyntheticWeb web({3000, 42, 2000, true});

  const web::WebSite* site = nullptr;
  if (argc > 1) {
    site = web.find_site(argv[1]);
    if (site == nullptr) {
      const auto rank = static_cast<std::size_t>(std::atol(argv[1]));
      if (rank >= 1 && rank <= web.site_count())
        site = &web.site_by_rank(rank);
    }
    if (site == nullptr) {
      std::cerr << "unknown domain/rank: " << argv[1] << "\n";
      return 1;
    }
  } else {
    site = &web.crawl_site(web::CrawlSite::kNyTimes);
  }
  const std::size_t internal_count =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 19;

  std::cout << "auditing " << site->domain() << " (rank "
            << site->profile().rank << ", category "
            << web::to_string(site->profile().category) << ", "
            << site->internal_page_count() << " internal pages)\n\n";

  // Most-visited internal pages via the search engine (the Hispar way).
  search::SearchEngine engine(web);
  const auto results =
      engine.site_query(site->domain(), internal_count, /*week=*/0);
  std::vector<std::size_t> pages;
  for (const auto& result : results)
    if (result.page_index != 0) pages.push_back(result.page_index);

  core::CampaignConfig config;
  config.landing_loads = 10;
  core::MeasurementCampaign campaign(web, config);
  const auto observation = campaign.measure_site(*site, pages);

  util::TextTable table(
      {"metric", "landing (median of 10)", "internal (median)", "L/I"});
  const auto row = [&](const char* name, const core::MetricFn& fn,
                       double unit, int precision) {
    const double landing = fn(observation.landing) / unit;
    const double internal = observation.internal_median(fn) / unit;
    table.add_row({name, util::TextTable::num(landing, precision),
                   util::TextTable::num(internal, precision),
                   util::TextTable::num(
                       internal > 0 ? landing / internal : 0.0, 2)});
  };
  row("page size (MB)", core::metric::bytes, 1e6, 2);
  row("objects", core::metric::objects, 1, 0);
  row("PLT (s)", core::metric::plt_ms, 1000, 2);
  row("SpeedIndex (s)", core::metric::speed_index_ms, 1000, 2);
  row("unique origins", core::metric::unique_domains, 1, 0);
  row("non-cacheable objects", core::metric::noncacheable, 1, 0);
  row("CDN byte fraction",
      [](const core::PageMetrics& m) { return m.cdn_bytes_fraction; }, 0.01,
      1);
  row("handshakes", core::metric::handshakes, 1, 0);
  row("tracking requests", core::metric::tracking_requests, 1, 0);
  row("resource hints", core::metric::hints_total, 1, 0);
  std::cout << table;

  const std::set<std::string> unseen = [&] {
    std::set<std::string> all = observation.internal_third_parties();
    std::set<std::string> out;
    for (const auto& domain : all)
      if (!observation.landing.third_parties.count(domain)) out.insert(domain);
    return out;
  }();
  std::cout << "\nthird parties on internal pages never seen on the landing "
               "page: "
            << unseen.size() << "\n";

  // Dump a HAR of one landing-page load for external analysis.
  net::LatencyModel latency;
  cdn::CdnHierarchy cdn(web.cdn_registry(), latency);
  net::CachingResolver resolver({}, latency);
  browser::PageLoader loader({&latency, &web.cdn_registry(), &cdn, &resolver,
                              net::Region::kNorthAmerica});
  // The HAR borrows from the page, so the page must outlive the export.
  const web::WebPage landing = site->page(0);
  const auto load = loader.load(landing, util::Rng(1));
  std::ofstream("har.json") << browser::to_har_json(load.har);
  std::cout << "landing-page HAR written to har.json ("
            << load.har.entries.size() << " entries)\n";
  return 0;
}
