// §5.4 / §5.5 implications, quantified:
//  * dependency-flattening optimizations (Polaris / Server Push /
//    Shandian) were designed and evaluated on landing pages, whose
//    dependency graphs are deeper — measure the onLoad gain per page
//    type and the landing-only evaluation bias;
//  * resource hints: "future work can use our publicly available lists
//    to carefully evaluate which hints could help internal pages, and to
//    what extent" — inject dns-prefetch/preconnect into internal pages
//    and measure the PLT gain.
#include "common.h"
#include "browser/critical_path.h"
#include "browser/qoe.h"

using namespace hispar;

namespace {

struct Env {
  net::LatencyModel latency;
  cdn::CdnHierarchy cdn;
  net::CachingResolver resolver;
  browser::PageLoader loader;

  explicit Env(const web::SyntheticWeb& web)
      : latency(),
        cdn(web.cdn_registry(), latency),
        resolver({"local", 1, 6.0, net::Region::kNorthAmerica, 1.0}, latency),
        loader({&latency, &web.cdn_registry(), &cdn, &resolver,
                net::Region::kNorthAmerica}) {}
};

}  // namespace

int main() {
  const std::size_t sites = bench::env_sites(200);
  bench::BenchWorld world(/*run_campaign=*/false, sites);
  Env env(*world.web);

  bench::print_header(
      "§5.4 — dependency-flattening (push) gains per page type",
      "landing pages have deeper graphs, so landing-only evaluations "
      "overestimate the optimization's impact on real browsing");

  double landing_plt_base = 0.0, landing_plt_pushed = 0.0;
  double internal_plt_base = 0.0, internal_plt_pushed = 0.0;
  double landing_ol_base = 0.0, landing_ol_pushed = 0.0;
  double internal_ol_base = 0.0, internal_ol_pushed = 0.0;
  double landing_hops = 0.0, internal_hops = 0.0;
  int measured = 0;
  for (std::size_t position = 0; position < world.h1k.sets.size();
       ++position) {
    const auto& set = world.h1k.sets[position];
    const web::WebSite* site = world.web->find_site(set.domain);
    if (set.page_indices.size() < 2) continue;
    const auto landing = site->page(0);
    const auto internal = site->page(set.page_indices[1]);

    // Results borrow from their pages: keep the pushed pages alive too.
    const auto landing_pushed = browser::push_all_objects(landing);
    const auto internal_pushed = browser::push_all_objects(internal);
    const auto lb = env.loader.load(landing, util::Rng(position));
    const auto lp = env.loader.load(landing_pushed, util::Rng(position));
    const auto ib = env.loader.load(internal, util::Rng(position ^ 0xa5));
    const auto ip =
        env.loader.load(internal_pushed, util::Rng(position ^ 0xa5));
    landing_plt_base += lb.plt_ms;
    landing_plt_pushed += lp.plt_ms;
    internal_plt_base += ib.plt_ms;
    internal_plt_pushed += ip.plt_ms;
    landing_ol_base += lb.on_load_ms;
    landing_ol_pushed += lp.on_load_ms;
    internal_ol_base += ib.on_load_ms;
    internal_ol_pushed += ip.on_load_ms;
    landing_hops += browser::critical_path(landing, lb).hops;
    internal_hops += browser::critical_path(internal, ib).hops;
    ++measured;
  }
  const double landing_gain = 1.0 - landing_plt_pushed / landing_plt_base;
  const double internal_gain = 1.0 - internal_plt_pushed / internal_plt_base;
  util::TextTable push({"page type", "PLT gain from push",
                        "onLoad gain from push", "mean critical-path hops"});
  push.add_row(
      {"landing", util::TextTable::pct(landing_gain),
       util::TextTable::pct(1.0 - landing_ol_pushed / landing_ol_base),
       util::TextTable::num(landing_hops / measured, 2)});
  push.add_row(
      {"internal", util::TextTable::pct(internal_gain),
       util::TextTable::pct(1.0 - internal_ol_pushed / internal_ol_base),
       util::TextTable::num(internal_hops / measured, 2)});
  std::cout << push;
  std::cout << "landing-only evaluation overstates the PLT push gain by "
            << util::TextTable::num(landing_gain / internal_gain, 2)
            << "x\n\n";

  bench::print_header(
      "§5.5 — which hints would help internal pages?",
      "internal pages of >90% of sites use multiple origins, so at least "
      "dns-prefetch should be added to them");

  util::TextTable hints({"injected hints", "internal PLT gain",
                         "internal DNS-time gain"});
  for (const auto& [label, dns, preconnect] :
       {std::tuple{"dns-prefetch x8", 8, 0},
        std::tuple{"preconnect x4", 0, 4},
        std::tuple{"dns-prefetch x8 + preconnect x4", 8, 4}}) {
    double base_plt = 0.0, hinted_plt = 0.0;
    double base_dns = 0.0, hinted_dns = 0.0;
    for (std::size_t position = 0; position < world.h1k.sets.size();
         ++position) {
      const auto& set = world.h1k.sets[position];
      if (set.page_indices.size() < 2) continue;
      const web::WebSite* site = world.web->find_site(set.domain);
      const auto page = site->page(set.page_indices[1]);
      const auto baseline = env.loader.load(page, util::Rng(position * 7));
      const auto hinted_page = browser::with_added_hints(page, dns, preconnect);
      const auto hinted = env.loader.load(hinted_page, util::Rng(position * 7));
      base_plt += baseline.plt_ms;
      hinted_plt += hinted.plt_ms;
      base_dns += baseline.dns_time_ms;
      hinted_dns += hinted.dns_time_ms;
    }
    hints.add_row({label, util::TextTable::pct(1.0 - hinted_plt / base_plt),
                   util::TextTable::pct(1.0 - hinted_dns / base_dns)});
  }
  std::cout << hints;
  return 0;
}
