// §5.3's implication, quantified: the DNS-over-HTTPS switching cost per
// page type (Boettger et al. measured ~20 DNS requests per *landing*
// page; internal pages contact fewer origins, so a landing-only study
// "would overestimate the count of DNS requests per page, and
// consequently miscalculate the cost of switching over to DoH").
#include "common.h"
#include "net/doh.h"

using namespace hispar;

int main() {
  const std::size_t sites = bench::env_sites(250);
  bench::BenchWorld world(/*run_campaign=*/false, sites);

  bench::print_header(
      "§5.3 — the per-page cost of switching to DoH",
      "landing pages issue more DNS queries (median ~20, Fig. 5), so "
      "landing-only studies overstate DoH's per-page cost");

  net::LatencyModel latency;
  cdn::CdnHierarchy cdn(world.web->cdn_registry(), latency);
  net::CachingResolver resolver(
      {"local", 1, 6.0, net::Region::kNorthAmerica, 1.0}, latency);
  browser::PageLoader loader({&latency, &world.web->cdn_registry(), &cdn,
                              &resolver, net::Region::kNorthAmerica});
  const net::DohConfig doh_config;  // 30 ms setup + 4 ms/query

  std::vector<double> landing_queries, internal_queries;
  std::vector<double> landing_cost_ms, internal_cost_ms;
  for (std::size_t position = 0; position < world.h1k.sets.size();
       position += 2) {
    const auto& set = world.h1k.sets[position];
    if (set.page_indices.size() < 2) continue;
    const web::WebSite* site = world.web->find_site(set.domain);
    const auto measure = [&](std::size_t page_index, std::vector<double>& q,
                             std::vector<double>& cost) {
      browser::LoadOptions options;
      options.use_resource_hints = false;  // count every lookup
      const web::WebPage page = site->page(page_index);
      const auto result = loader.load(page, util::Rng(11), options);
      q.push_back(result.dns_lookups);
      // Per-page DoH cost: connection setup amortized per page (cold
      // browser session, as in the paper's methodology) + per query.
      cost.push_back(doh_config.connection_setup_ms +
                     result.dns_lookups * doh_config.per_query_overhead_ms);
    };
    measure(0, landing_queries, landing_cost_ms);
    measure(set.page_indices[1], internal_queries, internal_cost_ms);
  }

  util::TextTable table({"page type", "median DNS queries",
                         "median DoH overhead (ms)", "p90 overhead (ms)"});
  table.add_row({"landing",
                 util::TextTable::num(util::median(landing_queries), 0),
                 util::TextTable::num(util::median(landing_cost_ms), 1),
                 util::TextTable::num(util::quantile(landing_cost_ms, 0.9), 1)});
  table.add_row({"internal",
                 util::TextTable::num(util::median(internal_queries), 0),
                 util::TextTable::num(util::median(internal_cost_ms), 1),
                 util::TextTable::num(util::quantile(internal_cost_ms, 0.9),
                                      1)});
  std::cout << table;
  std::cout << "\nlanding-only DoH cost estimate is "
            << util::TextTable::num(
                   util::median(landing_cost_ms) /
                       util::median(internal_cost_ms),
                   2)
            << "x the internal-page cost (paper: landing pages issue more "
               "queries; Boettger et al.'s\nmedian of 20/landing page "
               "matches our landing median)\n";
  return 0;
}
