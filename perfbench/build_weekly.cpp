// build_weekly: a 4-week ListBuildCampaign refresh of a 400-site list
// on 2 threads, writing each week's list CSV, the churn CSV and the cost
// ledger. Only the search, toplist and list-build layers work here; the
// browser, CDN and detection layers do none, so an optimisation of those
// must predict "no change" on this workload.
//
// The untraced iteration calls ListBuildCampaign::run. The traced
// iteration replays the fault-free wave scan from public parts (top
// list, one SearchEngine per shard, shard_of, for_each_unit, rank-order
// merge and cut at the serial stopping rank) with a span around every
// site: query; its lists, churn and ledger must be byte-identical.
#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "core/list_build.h"
#include "core/parallel.h"
#include "core/serialization.h"
#include "obs/report.h"

namespace perfbench {
namespace {

using namespace hispar;

constexpr std::size_t kJobs = 2;
constexpr std::uint64_t kWeeks = 4;

class BuildWeekly final : public Workload {
 public:
  std::size_t jobs() const override { return kJobs; }

  void setup(std::uint64_t seed, const Scale& scale) override {
    world_ = make_world(seed, scale, 0);
    config_ = core::ListBuildConfig{};
    config_.list.name = "H";
    config_.list.name += std::to_string(scale.build_sites);
    config_.list.target_sites = scale.build_sites;
    config_.list.urls_per_site = scale.urls_per_site;
    config_.engine = world_.engine->config();
    config_.weeks = kWeeks;
    config_.seed = seed;
    config_.jobs = kJobs;
  }

  Result run(const std::string& dir) override {
    Meter meter;
    meter.start();
    core::ListBuildCampaign campaign(*world_.web, *world_.toplists, config_);
    const core::ListBuildResult result = campaign.run();
    const std::string text = finish(result, campaign.telemetry(), dir, nullptr);
    meter.stop();
    return collect(result, text, dir, meter);
  }

  Result run_traced(const std::string& dir, SpanRecorder& spans) override {
    Meter meter;
    meter.start();
    core::ListBuildResult result;
    std::string text;
    {
      Span root(&spans, Layer::kWorkload, "workload");
      for (std::uint64_t week = config_.start_week;
           week < config_.start_week + config_.weeks; ++week) {
        auto [list, stats] = replay_week(week, spans);
        result.lists.push_back(std::move(list));
        result.weeks.push_back(stats);
      }
      text = finish(result, obs::RunTelemetry{}, dir, &spans);
    }
    meter.stop();
    Result out = collect(result, text, dir, meter);
    double billed = 0, speculative = 0;
    for (const auto& week : result.weeks) {
      billed += static_cast<double>(week.queries_billed);
      speculative += static_cast<double>(week.speculative_queries);
    }
    out.layer["search.queries"] = billed + speculative;
    out.layer["list_build.speculative_ratio"] = ratio(speculative, billed);
    return out;
  }

 private:
  struct ShardWeek {
    ShardWeek(const web::SyntheticWeb& web,
              const search::SearchEngineConfig& config)
        : engine(web, config) {}
    search::SearchEngine engine;
    std::vector<core::SiteCandidate> candidates;
  };

  // One rank of a fault-free scan: a single query attempt, then the
  // accept / drop / missing verdict (ListBuildCampaign::examine_rank).
  core::SiteCandidate examine(ShardWeek& shard,
                              const toplist::TopList& bootstrap,
                              std::uint64_t week, std::size_t rank,
                              SpanRecorder& spans) const {
    core::SiteCandidate candidate;
    candidate.rank = rank;
    candidate.domain = bootstrap.domain_at(rank);
    search::SiteQueryOutcome outcome;
    {
      Span span(&spans, Layer::kSearch, "search.site_query");
      outcome = shard.engine.site_query_outcome(
          candidate.domain, config_.list.urls_per_site - 1, week, nullptr);
    }
    candidate.queries_billed = outcome.queries_billed;
    if (!outcome.ok) {
      candidate.status = core::CandidateStatus::kQuarantined;
      candidate.failure = outcome.failure;
      return candidate;
    }
    std::size_t internal_results = 0;
    for (const auto& r : outcome.results)
      if (r.page_index != 0) ++internal_results;
    if (internal_results < config_.list.min_internal_results) {
      candidate.status = core::CandidateStatus::kDropped;
      return candidate;
    }
    const web::WebSite* site = world_.web->find_site(candidate.domain);
    if (site == nullptr) {
      candidate.status = core::CandidateStatus::kMissing;
      return candidate;
    }
    candidate.status = core::CandidateStatus::kAccepted;
    candidate.set.domain = candidate.domain;
    candidate.set.bootstrap_rank = rank;
    candidate.set.urls.push_back(site->page_url(0).str());
    candidate.set.page_indices.push_back(0);
    for (const auto& r : outcome.results) {
      if (r.page_index == 0) continue;
      candidate.set.urls.push_back(r.url);
      candidate.set.page_indices.push_back(r.page_index);
    }
    return candidate;
  }

  // ListBuildCampaign::build_week for a fault-free build.
  std::pair<core::HisparList, core::WeekBuildStats> replay_week(
      std::uint64_t week, SpanRecorder& spans) const {
    const std::size_t target = config_.list.target_sites;
    const std::size_t shard_count = std::max<std::size_t>(1, config_.shards);
    toplist::TopList bootstrap("", {});
    std::vector<std::unique_ptr<ShardWeek>> shards;
    std::size_t wave = 0;
    {
      Span span(&spans, Layer::kListBuild, "list_build.week_init");
      const std::size_t scan_limit = config_.list.max_bootstrap_scan == 0
                                         ? world_.web->site_count()
                                         : config_.list.max_bootstrap_scan;
      bootstrap = world_.toplists->weekly_list(config_.list.bootstrap, week,
                                               scan_limit);
      search::SearchEngineConfig engine_config = config_.engine;
      engine_config.index.crawl_budget = config_.list.index_crawl_budget;
      for (std::size_t s = 0; s < shard_count; ++s)
        shards.push_back(std::make_unique<ShardWeek>(*world_.web, engine_config));
      wave = core::ListBuildCampaign(*world_.web, *world_.toplists, config_)
                 .wave_size();
    }

    std::size_t accepted_total = 0;
    std::size_t next_rank = 1;
    while (next_rank <= bootstrap.size() && accepted_total < target) {
      const std::size_t wave_end = std::min(bootstrap.size(), next_rank + wave - 1);
      std::vector<std::vector<std::size_t>> wave_ranks(shard_count);
      std::vector<std::size_t> before(shard_count);
      {
        Span span(&spans, Layer::kListBuild, "list_build.wave_plan");
        for (std::size_t rank = next_rank; rank <= wave_end; ++rank)
          wave_ranks[core::shard_of(bootstrap.domain_at(rank), shard_count)]
              .push_back(rank);
        for (std::size_t s = 0; s < shard_count; ++s)
          before[s] = shards[s]->candidates.size();
      }
      {
        Span pool(&spans, Layer::kWait, "list_build.pool");
        const std::uint64_t cause = spans.current();
        core::for_each_unit(shard_count, config_.jobs, [&](std::size_t s) {
          Span unit(&spans, Layer::kListBuild, "list_build.unit", cause);
          for (std::size_t rank : wave_ranks[s])
            shards[s]->candidates.push_back(
                examine(*shards[s], bootstrap, week, rank, spans));
        });
      }
      for (std::size_t s = 0; s < shard_count; ++s)
        for (std::size_t i = before[s]; i < shards[s]->candidates.size(); ++i)
          if (shards[s]->candidates[i].status == core::CandidateStatus::kAccepted)
            ++accepted_total;
      next_rank = wave_end + 1;
    }

    Span span(&spans, Layer::kListBuild, "list_build.merge");
    std::vector<const core::SiteCandidate*> merged;
    for (const auto& shard : shards)
      for (const auto& candidate : shard->candidates)
        merged.push_back(&candidate);
    std::sort(merged.begin(), merged.end(),
              [](const core::SiteCandidate* a, const core::SiteCandidate* b) {
                return a->rank < b->rank;
              });
    std::size_t cut = merged.size();
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < merged.size(); ++i)
      if (merged[i]->status == core::CandidateStatus::kAccepted &&
          ++accepted == target) {
        cut = i + 1;
        break;
      }
    core::HisparList list;
    list.name = config_.list.name;
    list.week = week;
    core::WeekBuildStats stats;
    stats.week = week;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      const core::SiteCandidate& candidate = *merged[i];
      if (i >= cut) {
        stats.speculative_queries += candidate.queries_billed;
        continue;
      }
      ++stats.sites_examined;
      stats.queries_billed += candidate.queries_billed;
      switch (candidate.status) {
        case core::CandidateStatus::kAccepted:
          ++stats.sites_accepted;
          list.sets.push_back(candidate.set);
          break;
        case core::CandidateStatus::kDropped: ++stats.sites_dropped; break;
        case core::CandidateStatus::kMissing: ++stats.sites_missing; break;
        case core::CandidateStatus::kQuarantined:
          ++stats.sites_quarantined;
          ++stats.quarantined_by[static_cast<std::size_t>(candidate.failure)];
          break;
      }
    }
    return {std::move(list), stats};
  }

  // What `hispar build --weeks 4` writes: one list CSV per week, the
  // summary line, the churn CSV and the cost ledger.
  static std::string finish(const core::ListBuildResult& result,
                            const obs::RunTelemetry& telemetry,
                            const std::string& dir, SpanRecorder* spans) {
    const auto write = [](const std::string& path, const auto& emit) {
      std::ofstream out(path);
      emit(out);
      out.close();
      if (!out) throw std::runtime_error("cannot write " + path);
    };
    {
      Span span(spans, Layer::kSerialization, "serialization.csv_write");
      for (const auto& list : result.lists)
        write(dir + "/list-w" + std::to_string(list.week) + ".csv",
              [&](std::ostream& out) { core::write_csv(list, out); });
    }
    std::string text;
    {
      Span span(spans, Layer::kObs, "obs.report");
      text = obs::listbuild_summary_line(
                 core::build_listbuild_report(result, telemetry)) +
             "\n";
    }
    {
      Span span(spans, Layer::kAnalyses, "analyses.churn");
      write(dir + "/churn.csv", [&](std::ostream& out) {
        core::write_churn_csv(out, result.lists);
      });
    }
    {
      Span span(spans, Layer::kSerialization, "serialization.csv_write");
      write(dir + "/ledger.csv", [&](std::ostream& out) {
        core::write_cost_ledger_csv(out, result.weeks);
      });
    }
    return text;
  }

  static Result collect(const core::ListBuildResult& build,
                        const std::string& text, const std::string& dir,
                        const Meter& meter) {
    Result result;
    result.wall_s = meter.wall_s();
    result.cpu_s = meter.cpu_s();
    std::uint64_t billed = 0, speculative = 0, examined = 0, accepted = 0,
                  retries = 0, quarantined = 0;
    for (const auto& week : build.weeks) {
      billed += week.queries_billed;
      speculative += week.speculative_queries;
      examined += week.sites_examined;
      accepted += week.sites_accepted;
      retries += week.retries;
      quarantined += week.sites_quarantined;
    }
    // Every issued query is billed: the consumed prefix and the wave
    // overshoot past the serial stopping rank.
    result.ops = billed + speculative;
    result.attempted = result.ops;
    result.failed = retries + quarantined;
    result.counters["queries_billed"] = billed;
    result.counters["speculative_queries"] = speculative;
    result.counters["sites_examined"] = examined;
    result.counters["sites_accepted"] = accepted;
    for (const auto& list : build.lists) {
      const std::string name = "list-w" + std::to_string(list.week) + ".csv";
      result.digests[name] = file_digest(dir + "/" + name);
    }
    result.digests["churn.csv"] = file_digest(dir + "/churn.csv");
    result.digests["ledger.csv"] = file_digest(dir + "/ledger.csv");
    result.digests["summary"] = util::fnv1a(text);
    return result;
  }

  World world_;
  core::ListBuildConfig config_;
};

}  // namespace

std::unique_ptr<Workload> make_build_weekly() {
  return std::make_unique<BuildWeekly>();
}

}  // namespace perfbench
