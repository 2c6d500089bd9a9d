#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "bench.h"
#include "util/rng.h"

namespace perfbench {

const Scale& scale_named(const std::string& name) {
  // full: the sizes BENCHMARK.json runs (README.md explains them).
  // tiny: the self-test's sizes; no committed digests exist for them.
  static const Scale kFull{"full", 3000, 400, 60, 400, 20, 10, 5, 3.0};
  static const Scale kTiny{"tiny", 400, 16, 12, 20, 8, 3, 2, 0.0};
  if (name == kFull.name) return kFull;
  if (name == kTiny.name) return kTiny;
  throw std::invalid_argument("unknown --scale " + name + " (full|tiny)");
}

World make_world(std::uint64_t seed, const Scale& scale,
                 std::size_t list_sites) {
  using namespace hispar;
  World world;
  web::SyntheticWebConfig config;
  config.site_count = scale.universe;
  config.seed = seed;
  world.web = std::make_unique<web::SyntheticWeb>(config);
  world.toplists =
      std::make_unique<toplist::TopListFactory>(*world.web, 1009 + seed);
  world.engine = std::make_unique<search::SearchEngine>(*world.web);
  if (list_sites > 0) {
    core::HisparConfig list;
    list.name = "H";
    list.name += std::to_string(list_sites);
    list.target_sites = list_sites;
    list.urls_per_site = scale.urls_per_site;
    core::HisparBuilder builder(*world.web, *world.toplists, *world.engine);
    world.list = builder.build(list, 0);
    if (world.list.sets.size() != list_sites)
      throw std::runtime_error("setup: list holds " +
                               std::to_string(world.list.sets.size()) +
                               " sites, wanted " +
                               std::to_string(list_sites));
  }
  return world;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void Meter::start() {
  wall_start_ = now_s();
  cpu_start_ = process_cpu_s();
}

void Meter::stop() {
  wall_s_ += now_s() - wall_start_;
  cpu_s_ += process_cpu_s() - cpu_start_;
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read artifact " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return hispar::util::fnv1a(bytes);
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void count_fetches(const std::vector<hispar::core::SiteObservation>& sites,
                   Result& result) {
  std::uint64_t loads = 0, fetches = 0, retries = 0, internals = 0;
  for (const auto& site : sites) {
    for (const auto& outcome : site.outcomes)
      loads += static_cast<std::uint64_t>(outcome.attempts);
    fetches += site.outcomes.size();
    retries += static_cast<std::uint64_t>(site.total_retries);
    internals += site.internals.size();
  }
  const auto summary = hispar::core::summarize_campaign(sites);
  result.ops += loads;
  result.attempted += fetches;
  result.failed += summary.failed_fetches;
  result.counters["loads"] += loads;
  result.counters["page_fetches"] += fetches;
  result.counters["failed_fetches"] += summary.failed_fetches;
  result.counters["page_retries"] += retries;
  result.counters["internal_pages"] += internals;
  result.counters["sites_quarantined"] += summary.sites_quarantined;
}

}  // namespace perfbench
