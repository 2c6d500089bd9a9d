// hispar — the command-line tool for recreating and customizing Hispar
// lists (the paper releases exactly such tooling as its artifact [49]).
//
// Subcommands:
//   build    run the weekly list-refresh campaign and write the lists
//            as CSV (one file per week)
//            --sites N --urls M --week W --weeks K --min-results K
//            --out FILE --provider alexa|umbrella|majestic|quantcast|tranco
//            --jobs N --shards S (sharded bootstrap scan; results are
//            identical for every --jobs value)
//            --fault-profile none|uniform:R|query_timeout=R,... (inject
//            search-API faults) --max-retries N
//            --chaos-profile SPEC (correlated search-API outage windows;
//            see DESIGN.md "Chaos engine")
//            --checkpoint FILE --resume FILE (week-granular resume)
//            --churn-out FILE --ledger-out FILE (§3 churn CSV, §7 cost
//            ledger) --metrics-out/--trace-out/--report-out FILE --quiet
//   churn    weekly stability of the list (§3)
//            --sites N --urls M --weeks K
//   harden   Tranco-style multi-week hardening (§3 / Pochat et al.)
//            --sites N --urls M --weeks K --min-weeks A --out FILE
//   crawl    §4-style limited exhaustive crawl of one site
//            --domain D | --rank R, --pages N
//   measure  run the §3.1 measurement campaign over a list CSV
//            --list FILE --loads L --out FILE
//            --jobs N (worker threads; 0 = all cores; results are
//            identical for every N) --shards S (cache-warmth domains;
//            S *does* affect results — see DESIGN.md "Concurrency model")
//            --fault-profile none|uniform:R|dns_servfail=R,... (inject
//            substrate faults; see DESIGN.md "Failure model")
//            --chaos-profile SPEC (correlated outage windows with a blast
//            radius, e.g. "cdn:provider=2,start_s=120,dur_s=300,
//            kind=http_5xx,sev=0.9"; enables circuit breakers, hedged
//            DNS and deadline budgets — see DESIGN.md "Chaos engine")
//            --max-retries N --page-timeout-s T (failure handling)
//            --checkpoint FILE (append per-shard progress; resumes
//            automatically when FILE exists) --resume FILE (like
//            --checkpoint but FILE must already exist)
//            --vantages N | --vantage-profile SPEC[;SPEC...] (run the
//            campaign from N vantage points; vantage 0 writes --out,
//            vantage k writes FILE-v<k>.csv, checkpointing becomes
//            (vantage, shard)-granular, --jobs schedules the cross-
//            vantage (vantage x shard) work pool, --report-out switches
//            to the multi-vantage report) --consensus-out FILE
//            (per-site cross-vantage consensus CSV)
//            --sessions (additionally replay one warm browsing session
//            per site — landing page then --session-len internal pages
//            through a private browser cache; the cold artifacts above
//            are unchanged, the warm CSV goes to --session-out,
//            per-site cache counters to --warm-hits-out, checkpointing
//            gains a FILE-sessions companion and --report-out switches
//            to the session report) --session-len K --session-out FILE
//            --warm-hits-out FILE
//            --metrics-out FILE --trace-out FILE --report-out FILE
//            (observability artifacts; any of them enables telemetry)
//            --quiet (suppress the multi-line run report)
//   help     print the full flag reference (also: --help anywhere)
//   survey   print Table 1 from the embedded §2 corpus
//
// Global: --seed S --universe N control the synthetic web.
// Unrecognized flags are an error (typo protection).
#include <fstream>
#include <iostream>
#include <memory>

#include "core/analyses.h"
#include "core/cli_checks.h"
#include "core/hardening.h"
#include "core/hispar.h"
#include "core/list_build.h"
#include "core/measurement.h"
#include "core/serialization.h"
#include "core/session.h"
#include "core/vantage.h"
#include "net/vantage_profile.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "search/crawler.h"
#include "survey/classifier.h"
#include "util/args.h"
#include "util/table.h"

namespace {

using namespace hispar;

toplist::Provider provider_from(const std::string& name) {
  if (name == "alexa") return toplist::Provider::kAlexa;
  if (name == "umbrella") return toplist::Provider::kUmbrella;
  if (name == "majestic") return toplist::Provider::kMajestic;
  if (name == "quantcast") return toplist::Provider::kQuantcast;
  if (name == "tranco") return toplist::Provider::kTranco;
  throw std::invalid_argument("unknown provider: " + name);
}

struct World {
  std::unique_ptr<web::SyntheticWeb> web;
  std::unique_ptr<toplist::TopListFactory> toplists;
  std::unique_ptr<search::SearchEngine> engine;

  World(std::size_t universe, std::uint64_t seed) {
    web::SyntheticWebConfig config;
    config.site_count = universe;
    config.seed = seed;
    web = std::make_unique<web::SyntheticWeb>(config);
    toplists = std::make_unique<toplist::TopListFactory>(*web);
    engine = std::make_unique<search::SearchEngine>(*web);
  }

  core::HisparList build(const char* cmd, const util::Args& args,
                         std::uint64_t week) {
    core::HisparBuilder builder(*web, *toplists, *engine);
    core::HisparConfig config;
    config.name = "H" + std::to_string(args.get_int("sites", 200));
    config.target_sites = static_cast<std::size_t>(args.get_int("sites", 200));
    config.urls_per_site =
        static_cast<std::size_t>(args.get_int("urls", 20));
    config.min_internal_results =
        static_cast<std::size_t>(args.get_int("min-results", 5));
    core::validate_url_budget(cmd, config.urls_per_site,
                              config.min_internal_results);
    config.bootstrap = provider_from(args.get("provider", "alexa"));
    const auto list = builder.build(config, week);
    last_stats = builder.last_build_stats();
    return list;
  }

  core::BuildStats last_stats;
};

// Artifact files are opened before a campaign runs so an unwritable
// path fails in milliseconds, not after the work (core/cli_checks).
using core::finish_artifact;
using core::open_artifact;

// Resolve the shared --checkpoint / --resume pair. A bare --resume, a
// missing resume file and a conflicting --checkpoint all fail fast in
// core::resolve_checkpoint_path before any campaign work starts.
std::string checkpoint_path_from(const char* cmd, const util::Args& args) {
  return core::resolve_checkpoint_path(cmd, args.get("checkpoint", ""),
                                       args.has("resume"),
                                       args.get("resume", ""));
}

// "hispar.csv" + "-w3" -> "hispar-w3.csv"; suffix lands before the
// extension unless the basename has none.
std::string suffixed_csv_path(const std::string& base,
                              const std::string& suffix) {
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.rfind('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

// Per-week output path: "hispar.csv" -> "hispar-w3.csv". Single-week
// builds keep the path untouched (legacy behaviour).
std::string week_csv_path(const std::string& base, std::uint64_t week) {
  return suffixed_csv_path(base, "-w" + std::to_string(week));
}

// Per-vantage metrics path: "metrics.csv" -> "metrics-v2.csv" (vantage
// 0 keeps the base path — it is the home vantage).
std::string vantage_csv_path(const std::string& base, std::size_t vantage) {
  return suffixed_csv_path(base, "-v" + std::to_string(vantage));
}

int cmd_build(World& world, const util::Args& args) {
  core::ListBuildConfig config;
  config.list.name = "H" + std::to_string(args.get_int("sites", 200));
  config.list.target_sites =
      static_cast<std::size_t>(args.get_int("sites", 200));
  config.list.urls_per_site =
      static_cast<std::size_t>(args.get_int("urls", 20));
  config.list.min_internal_results =
      static_cast<std::size_t>(args.get_int("min-results", 5));
  config.list.bootstrap = provider_from(args.get("provider", "alexa"));
  config.engine = world.engine->config();
  config.start_week = static_cast<std::uint64_t>(args.get_int("week", 0));
  config.weeks = static_cast<std::uint64_t>(args.get_int("weeks", 1));
  config.jobs = static_cast<std::size_t>(args.get_int("jobs", 1));
  config.shards = static_cast<std::size_t>(
      args.get_int("shards", static_cast<long>(config.shards)));
  core::validate_build_flags({config.weeks, config.shards,
                              config.list.target_sites,
                              config.list.urls_per_site,
                              config.list.min_internal_results});
  config.fault_profile =
      net::SearchFaultProfile::parse(args.get("fault-profile", "none"));
  config.chaos = net::OutageSchedule::parse(args.get("chaos-profile", "none"));
  config.max_query_retries = static_cast<int>(
      args.get_int("max-retries", config.max_query_retries));
  config.checkpoint_path = checkpoint_path_from("build", args);

  const std::string churn_out = args.get("churn-out", "");
  const std::string ledger_out = args.get("ledger-out", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string trace_out = args.get("trace-out", "");
  const std::string report_out = args.get("report-out", "");
  const bool quiet = args.get_bool("quiet");
  config.observability.enabled =
      !metrics_out.empty() || !trace_out.empty() || !report_out.empty();
  std::unique_ptr<std::ofstream> churn_os, ledger_os, metrics_os, trace_os,
      report_os;
  if (!churn_out.empty())
    churn_os = open_artifact("build", "churn-out", churn_out);
  if (!ledger_out.empty())
    ledger_os = open_artifact("build", "ledger-out", ledger_out);
  if (!metrics_out.empty())
    metrics_os = open_artifact("build", "metrics-out", metrics_out);
  if (!trace_out.empty())
    trace_os = open_artifact("build", "trace-out", trace_out);
  if (!report_out.empty())
    report_os = open_artifact("build", "report-out", report_out);

  core::ListBuildCampaign campaign(*world.web, *world.toplists, config);
  const auto result = campaign.run();

  // One CSV per week; a single-week build writes exactly the legacy
  // artifact (path and summary line unchanged).
  const std::string out = args.get("out", "hispar.csv");
  const double price = search::query_price_usd(config.engine.provider);
  for (std::size_t i = 0; i < result.lists.size(); ++i) {
    const core::HisparList& list = result.lists[i];
    const std::string path =
        config.weeks == 1 ? out : week_csv_path(out, list.week);
    auto list_os = open_artifact("build", "out", path);
    core::write_csv(list, *list_os);
    finish_artifact("build", "out", path, *list_os);
    std::cout << "wrote " << list.total_urls() << " URLs / "
              << list.sets.size() << " sites to " << path << "  ("
              << result.weeks[i].queries_billed << " queries, $"
              << util::TextTable::num(
                     static_cast<double>(result.weeks[i].queries_billed) *
                         price,
                     2)
              << " at Google pricing)\n";
  }

  const obs::ListBuildReport report =
      core::build_listbuild_report(result, campaign.telemetry());
  if (config.weeks > 1 || campaign.telemetry().enabled)
    std::cout << obs::listbuild_summary_line(report) << "\n";
  if (campaign.telemetry().enabled && !quiet)
    std::cout << obs::render_listbuild_report_text(report);
  if (churn_os != nullptr) {
    core::write_churn_csv(*churn_os, result.lists);
    finish_artifact("build", "churn-out", churn_out, *churn_os);
    std::cout << "churn -> " << churn_out << "\n";
  }
  if (ledger_os != nullptr) {
    core::write_cost_ledger_csv(*ledger_os, result.weeks);
    finish_artifact("build", "ledger-out", ledger_out, *ledger_os);
    std::cout << "cost ledger -> " << ledger_out << "\n";
  }
  if (metrics_os != nullptr) {
    campaign.telemetry().metrics.write_json(*metrics_os);
    finish_artifact("build", "metrics-out", metrics_out, *metrics_os);
    std::cout << "metrics -> " << metrics_out << "\n";
  }
  if (trace_os != nullptr) {
    obs::write_chrome_trace(*trace_os, campaign.telemetry().spans);
    finish_artifact("build", "trace-out", trace_out, *trace_os);
    std::cout << "trace -> " << trace_out << "\n";
  }
  if (report_os != nullptr) {
    obs::write_listbuild_report_json(*report_os, report);
    finish_artifact("build", "report-out", report_out, *report_os);
    std::cout << "report -> " << report_out << "\n";
  }
  return 0;
}

int cmd_churn(World& world, const util::Args& args) {
  const auto weeks = static_cast<std::uint64_t>(args.get_int("weeks", 4));
  if (weeks < 2) throw std::invalid_argument("churn: need --weeks >= 2");
  std::vector<core::HisparList> lists;
  for (std::uint64_t week = 0; week < weeks; ++week)
    lists.push_back(world.build("churn", args, week));
  util::TextTable table({"week pair", "site churn", "internal URL churn"});
  for (std::uint64_t week = 0; week + 1 < weeks; ++week) {
    table.add_row(
        {std::to_string(week) + " -> " + std::to_string(week + 1),
         util::TextTable::pct(core::site_churn(lists[week], lists[week + 1])),
         util::TextTable::pct(
             core::internal_url_churn(lists[week], lists[week + 1]))});
  }
  std::cout << table;
  return 0;
}

int cmd_harden(World& world, const util::Args& args) {
  const auto weeks = static_cast<std::uint64_t>(args.get_int("weeks", 4));
  std::vector<core::HisparList> lists;
  for (std::uint64_t week = 0; week < weeks; ++week)
    lists.push_back(world.build("harden", args, week));
  core::HardeningConfig config;
  config.min_site_appearances =
      static_cast<std::size_t>(args.get_int("min-weeks", 2));
  config.min_url_appearances = config.min_site_appearances;
  config.urls_per_site = static_cast<std::size_t>(args.get_int("urls", 20));
  const auto hardened = core::harden(lists, config);
  const std::string out = args.get("out", "hispar_hardened.csv");
  auto out_os = open_artifact("harden", "out", out);
  core::write_csv(hardened, *out_os);
  finish_artifact("harden", "out", out, *out_os);
  std::cout << "hardened list: " << hardened.sets.size() << " sites, "
            << hardened.total_urls() << " URLs -> " << out << "\n";
  return 0;
}

int cmd_crawl(World& world, const util::Args& args) {
  const web::WebSite* site = nullptr;
  if (args.has("domain")) site = world.web->find_site(args.get("domain", ""));
  if (site == nullptr && args.has("rank"))
    site = &world.web->site_by_rank(
        static_cast<std::size_t>(args.get_int("rank", 1)));
  if (site == nullptr)
    throw std::invalid_argument("crawl: need --domain or --rank");
  search::CrawlConfig config;
  config.max_unique_pages =
      static_cast<std::size_t>(args.get_int("pages", 5000));
  const auto result = search::crawl_site(*site, config);
  std::cout << site->domain() << ": discovered " << result.pages.size()
            << " unique pages (" << result.link_fetches
            << " pages expanded, " << result.robots_skipped
            << " blocked by robots.txt)\n";
  return 0;
}

int cmd_measure(World& world, const util::Args& args) {
  const std::string list_path = args.get("list", "");
  core::HisparList list;
  if (list_path.empty()) {
    list = world.build("measure", args, 0);
  } else {
    list = core::load_csv(list_path);
  }
  core::CampaignConfig config;
  config.landing_loads = static_cast<int>(args.get_int("loads", 10));
  config.jobs = static_cast<std::size_t>(args.get_int("jobs", 1));
  config.shards = static_cast<std::size_t>(
      args.get_int("shards", static_cast<long>(config.shards)));
  config.fault_profile =
      net::FaultProfile::parse(args.get("fault-profile", "none"));
  config.chaos = net::OutageSchedule::parse(args.get("chaos-profile", "none"));
  config.max_page_retries =
      static_cast<int>(args.get_int("max-retries", config.max_page_retries));
  config.page_timeout_s =
      args.get_double("page-timeout-s", config.page_timeout_s);

  // The whole flag-combination matrix (shard bounds, vantage mode,
  // session mode and their conflicts) is validated in one place so the
  // tests can drive it table-style (core/cli_checks).
  const std::string session_out_flag = args.get("session-out", "");
  const std::string warm_hits_out = args.get("warm-hits-out", "");
  const std::string consensus_out = args.get("consensus-out", "");
  const long session_len = args.get_int("session-len", 5);
  core::MeasureFlags flag_view;
  flag_view.shards = config.shards;
  flag_view.list_sites = list.sets.size();
  flag_view.has_vantages = args.has("vantages");
  if (flag_view.has_vantages) flag_view.vantages = args.get_int("vantages", 1);
  flag_view.vantage_profile = args.get("vantage-profile", "");
  flag_view.consensus_out = consensus_out;
  flag_view.sessions = args.get_bool("sessions");
  flag_view.has_session_flags = args.has("session-len") ||
                                !session_out_flag.empty() ||
                                !warm_hits_out.empty();
  flag_view.session_len = session_len;
  const core::MeasurePlan plan = core::validate_measure_flags(flag_view);

  const std::string checkpoint_path = checkpoint_path_from("measure", args);

  // Vantage mode: any vantage flag routes the run through the
  // multi-vantage engine (a single vantage through it is byte-identical
  // to the plain campaign; only the checkpoint format differs).
  const bool vantage_mode = plan.vantage_mode;
  const std::vector<net::VantageProfile>& profiles = plan.profiles;

  // Session mode: replay one warm browsing session per site after the
  // cold campaign. The cold artifacts stay byte-identical to a run
  // without --sessions; the warm CSV, cache counters, checkpoint
  // companion and the session report are new files.
  const bool session_mode = plan.session_mode;
  const std::string out = args.get("out", "metrics.csv");
  const std::string session_out = session_out_flag.empty()
                                      ? suffixed_csv_path(out, "-sessions")
                                      : session_out_flag;

  // Observability: any artifact flag enables telemetry.
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string trace_out = args.get("trace-out", "");
  const std::string report_out = args.get("report-out", "");
  const bool quiet = args.get_bool("quiet");
  config.observability.enabled =
      !metrics_out.empty() || !trace_out.empty() || !report_out.empty();
  // The primary CSV opens up front like every secondary artifact: an
  // unwritable --out must fail before the campaign runs, not silently
  // drop the results after it (a fuzz-era CLI-drive find).
  std::unique_ptr<std::ofstream> out_os = open_artifact("measure", "out", out);
  std::unique_ptr<std::ofstream> metrics_os, trace_os, report_os,
      consensus_os, session_os, warm_hits_os;
  if (!metrics_out.empty())
    metrics_os = open_artifact("measure", "metrics-out", metrics_out);
  if (!trace_out.empty())
    trace_os = open_artifact("measure", "trace-out", trace_out);
  if (!report_out.empty())
    report_os = open_artifact("measure", "report-out", report_out);
  if (!consensus_out.empty())
    consensus_os = open_artifact("measure", "consensus-out", consensus_out);
  if (session_mode) {
    session_os = open_artifact("measure", "session-out", session_out);
    if (!warm_hits_out.empty())
      warm_hits_os = open_artifact("measure", "warm-hits-out", warm_hits_out);
  }

  std::unique_ptr<core::MeasurementCampaign> single;
  std::unique_ptr<core::VantageCampaign> multi;
  std::vector<std::vector<core::SiteObservation>> per_vantage;
  if (vantage_mode) {
    core::VantageCampaignConfig vantage_config;
    vantage_config.base = config;
    vantage_config.profiles = profiles;
    vantage_config.checkpoint_path = checkpoint_path;
    multi = std::make_unique<core::VantageCampaign>(*world.web,
                                                    std::move(vantage_config));
    per_vantage = multi->run(list).observations;
  } else {
    config.checkpoint_path = checkpoint_path;
    single = std::make_unique<core::MeasurementCampaign>(*world.web, config);
    per_vantage.push_back(single->run(list));
  }

  // The warm replay runs after the cold campaign so the two share a
  // list and substrate configuration; its checkpoint is a companion
  // file (FILE-sessions) at session granularity.
  std::unique_ptr<core::SessionCampaign> session_campaign;
  std::vector<core::SiteObservation> warm_sites;
  if (session_mode) {
    core::SessionConfig session_config;
    session_config.base = config;
    session_config.base.checkpoint_path.clear();
    session_config.session_len = static_cast<std::size_t>(session_len);
    if (!checkpoint_path.empty())
      session_config.checkpoint_path =
          suffixed_csv_path(checkpoint_path, "-sessions");
    session_campaign = std::make_unique<core::SessionCampaign>(
        *world.web, std::move(session_config));
    warm_sites = session_campaign->run(list);
  }

  // In session mode the observability artifacts describe the warm
  // replay (the cold campaign's telemetry is byte-identical to a
  // sessions-off run and can be exported by one).
  const obs::RunTelemetry& telemetry =
      vantage_mode ? multi->telemetry()
                   : (session_mode ? session_campaign->telemetry()
                                   : single->telemetry());
  const auto& sites = per_vantage.front();

  core::write_measure_csv(*out_os, sites);
  finish_artifact("measure", "out", out, *out_os);
  std::cout << "measured " << sites.size() << " sites -> " << out << "\n";
  for (std::size_t v = 1; v < per_vantage.size(); ++v) {
    const std::string path = vantage_csv_path(out, v);
    auto vantage_os = open_artifact("measure", "out", path);
    core::write_measure_csv(*vantage_os, per_vantage[v]);
    finish_artifact("measure", "out", path, *vantage_os);
    std::cout << "vantage " << v << " (" << profiles[v].name << ") -> "
              << path << "\n";
  }
  if (session_os != nullptr) {
    core::write_measure_csv(*session_os, warm_sites);
    finish_artifact("measure", "session-out", session_out, *session_os);
    std::cout << "sessions -> " << session_out << "\n";
  }
  if (warm_hits_os != nullptr) {
    core::write_warm_hits_csv(*warm_hits_os, warm_sites,
                              session_campaign->cache_stats());
    finish_artifact("measure", "warm-hits-out", warm_hits_out, *warm_hits_os);
    std::cout << "warm hits -> " << warm_hits_out << "\n";
  }

  // All run accounting flows through a structured report; in the
  // single-vantage case the summary line it renders is byte-identical
  // to the historical one, and the artifact print order (metrics,
  // trace, report) is the legacy order.
  std::unique_ptr<obs::RunReport> run_report;
  std::unique_ptr<obs::VantageReport> vantage_report;
  std::unique_ptr<obs::SessionReport> session_report;
  if (per_vantage.size() == 1) {
    run_report = std::make_unique<obs::RunReport>(
        core::build_run_report(sites, single->telemetry()));
    std::cout << obs::summary_line(*run_report) << "\n";
    if (!session_mode && telemetry.enabled && !quiet)
      std::cout << obs::render_report_text(*run_report);
  } else {
    vantage_report = std::make_unique<obs::VantageReport>(
        core::build_vantage_report(per_vantage, profiles, telemetry));
    std::cout << obs::vantage_summary_line(*vantage_report) << "\n";
    if (telemetry.enabled && !quiet)
      std::cout << obs::render_vantage_report_text(*vantage_report);
  }
  if (session_mode) {
    session_report = std::make_unique<obs::SessionReport>(
        core::build_session_report(sites, warm_sites,
                                   session_campaign->cache_stats(), telemetry,
                                   static_cast<std::size_t>(session_len)));
    std::cout << obs::session_summary_line(*session_report) << "\n";
    if (telemetry.enabled && !quiet)
      std::cout << obs::render_session_report_text(*session_report);
  }
  if (metrics_os != nullptr) {
    telemetry.metrics.write_json(*metrics_os);
    finish_artifact("measure", "metrics-out", metrics_out, *metrics_os);
    std::cout << "metrics -> " << metrics_out << "\n";
  }
  if (trace_os != nullptr) {
    obs::write_chrome_trace(*trace_os, telemetry.spans);
    finish_artifact("measure", "trace-out", trace_out, *trace_os);
    std::cout << "trace -> " << trace_out << "\n";
  }
  if (report_os != nullptr) {
    if (session_report != nullptr)
      obs::write_session_report_json(*report_os, *session_report);
    else if (run_report != nullptr)
      obs::write_report_json(*report_os, *run_report);
    else
      obs::write_vantage_report_json(*report_os, *vantage_report);
    finish_artifact("measure", "report-out", report_out, *report_os);
    std::cout << "report -> " << report_out << "\n";
  }
  if (consensus_os != nullptr) {
    core::write_vantage_consensus_csv(*consensus_os, per_vantage);
    finish_artifact("measure", "consensus-out", consensus_out, *consensus_os);
    std::cout << "consensus -> " << consensus_out << "\n";
  }

  const auto size = core::compare_metric(sites, core::metric::bytes);
  const auto plt = core::compare_metric(sites, core::metric::plt_ms);
  if (size.landing.empty()) {
    std::cout << "no usable sites; skipping landing-vs-internal contrast\n";
    return 0;
  }
  std::cout << "landing larger for "
            << util::TextTable::pct(size.fraction_landing_greater())
            << " of sites; landing faster for "
            << util::TextTable::pct(1.0 - plt.fraction_landing_greater())
            << "\n";
  if (session_report != nullptr) {
    for (const auto& line : session_report->metric_lines) {
      if (line.metric != "plt_ms" || !line.has_values) continue;
      const double cold_gap =
          line.cold_landing_median - line.cold_internal_median;
      const double warm_gap =
          line.warm_landing_median - line.warm_internal_median;
      std::cout << "PLT landing-internal gap: cold "
                << util::TextTable::num(cold_gap, 1) << " ms vs warm "
                << util::TextTable::num(warm_gap, 1) << " ms\n";
    }
  }
  return 0;
}

int cmd_survey(const util::Args&) {
  const auto corpus = survey::survey_corpus();
  std::cout << survey::render_table1(corpus);
  const auto summary = survey::summarize(corpus);
  std::cout << summary.using_top_list << " papers use a top list; "
            << summary.major + summary.minor
            << " need at least a minor revision\n";
  return 0;
}

void print_help(std::ostream& out, const std::string& program) {
  out << "usage: " << program
      << " build|churn|harden|crawl|measure|survey|help [--flags]\n"
         "\n"
         "global flags:\n"
         "  --seed S            synthetic-web seed (default 42)\n"
         "  --universe N        synthetic-web site count (default 3000)\n"
         "  --help              print this reference and exit\n"
         "\n"
         "build: run the weekly list-refresh campaign, one CSV per week\n"
         "  --sites N --urls M --min-results K --out FILE\n"
         "  --provider alexa|umbrella|majestic|quantcast|tranco\n"
         "  --week W            first week to build (default 0)\n"
         "  --weeks K           refresh-loop length (default 1; multi-week\n"
         "                      runs write FILE-w<week>.csv per week)\n"
         "  --jobs N            worker threads; 0 = all cores; lists are\n"
         "                      identical for every N (default 1)\n"
         "  --shards S          scan shards; fault streams are keyed by\n"
         "                      shard, so S affects faulty runs (default 8)\n"
         "  --fault-profile P   none|uniform:R|query_timeout=R,\n"
         "                      empty_page=R,quota_exceeded=R,rate_limited=R\n"
         "  --chaos-profile C   correlated outage windows, e.g.\n"
         "                      \"search:mtbf_s=600,mttr_s=120,\n"
         "                      kind=rate_limited,sev=0.8\" (only search-\n"
         "                      scope rules affect the build)\n"
         "  --max-retries N     query attempts beyond the first (default 2)\n"
         "  --checkpoint FILE   append completed weeks; resumes\n"
         "                      automatically when FILE exists\n"
         "  --resume FILE       like --checkpoint, FILE must exist\n"
         "  --churn-out FILE    week-over-week churn CSV\n"
         "  --ledger-out FILE   per-week, per-provider cost ledger CSV\n"
         "  --metrics-out FILE --trace-out FILE --report-out FILE\n"
         "                      observability artifacts (enable telemetry)\n"
         "  --quiet             suppress the multi-line build report\n"
         "\n"
         "churn: weekly stability of the list\n"
         "  --sites N --urls M --weeks K\n"
         "\n"
         "harden: Tranco-style multi-week hardening\n"
         "  --sites N --urls M --weeks K --min-weeks A --out FILE\n"
         "\n"
         "crawl: limited exhaustive crawl of one site\n"
         "  --domain D | --rank R, --pages N\n"
         "\n"
         "measure: run the measurement campaign over a list CSV\n"
         "  --list FILE         list to measure (default: build one)\n"
         "  --loads L           landing-page loads per site (default 10)\n"
         "  --out FILE          metrics CSV (default metrics.csv)\n"
         "  --jobs N            worker threads; 0 = all cores; results\n"
         "                      are identical for every N (default 1)\n"
         "  --shards S          cache-warmth domains; S *does* affect\n"
         "                      results (default 8)\n"
         "  --fault-profile P   none|uniform:R|dns_servfail=R,...\n"
         "  --chaos-profile C   ';'-separated correlated outage rules:\n"
         "                      scope cdn|resolver|origin|search, keys\n"
         "                      provider=/domain=/kind=/sev= and either\n"
         "                      start_s=/dur_s= or mtbf_s=/mttr_s=, e.g.\n"
         "                      \"cdn:provider=2,start_s=120,dur_s=300,\n"
         "                      kind=http_5xx,sev=0.9\"; enables circuit\n"
         "                      breakers, hedged DNS, deadline budgets\n"
         "  --max-retries N --page-timeout-s T\n"
         "  --checkpoint FILE   append per-shard progress; resumes\n"
         "                      automatically when FILE exists\n"
         "  --resume FILE       like --checkpoint, FILE must exist\n"
         "  --vantages N        run from N vantage points (deterministic\n"
         "                      built-in profiles; vantage 0 is the home\n"
         "                      vantage and writes --out, vantage k writes\n"
         "                      FILE-v<k>.csv; --jobs threads pull\n"
         "                      (vantage, shard) units, checkpoints become\n"
         "                      (vantage, shard)-granular)\n"
         "  --vantage-profile P ';'-separated profile specs, e.g.\n"
         "                      \"us-home;eu:region=eu:resolver=public\"\n"
         "                      (keys: region, resolver, doh, edge,\n"
         "                      access_ms, bandwidth, faults)\n"
         "  --consensus-out F   per-site cross-vantage consensus CSV\n"
         "  --sessions          after the cold campaign, replay one warm\n"
         "                      browsing session per site (landing page\n"
         "                      then internal pages through a private\n"
         "                      HTTP cache + warm DNS + keep-alive); the\n"
         "                      cold artifacts are unchanged, telemetry\n"
         "                      artifacts describe the warm replay, and\n"
         "                      --report-out becomes the session report\n"
         "  --session-len K     internal pages per session, >= 1\n"
         "                      (default 5; needs --sessions)\n"
         "  --session-out FILE  warm per-session CSV (default: --out\n"
         "                      with a -sessions suffix)\n"
         "  --warm-hits-out F   per-site browser-cache counter CSV\n"
         "  --metrics-out FILE  merged metrics registry as JSON\n"
         "  --trace-out FILE    virtual-clock Chrome trace JSON\n"
         "                      (open in ui.perfetto.dev)\n"
         "  --report-out FILE   structured run report as JSON\n"
         "                      (any of the three enables telemetry;\n"
         "                      measurements are unaffected)\n"
         "  --quiet             suppress the multi-line run report\n"
         "\n"
         "survey: print Table 1 from the embedded corpus\n";
}

int usage(const std::string& program) {
  print_help(std::cerr, program);
  return 2;
}

}  // namespace

namespace {

// A typo'd flag silently falling back to its default is the worst
// failure mode for a measurement tool: the campaign runs, the numbers
// look plausible, and they are wrong. Args tracks which flags were
// read; anything left over is an error.
int reject_unused_flags(const util::Args& args, int status) {
  const auto unused = args.unused();
  if (unused.empty()) return status;
  std::cerr << "hispar: unrecognized flag";
  if (unused.size() > 1) std::cerr << 's';
  for (const auto& flag : unused) std::cerr << " --" << flag;
  std::cerr << " (see the header of tools/hispar_cli.cpp)\n";
  return 2;
}

int dispatch(const util::Args& args) {
  if (args.get_bool("help") || args.subcommand() == "help") {
    print_help(std::cout, args.program());
    return 0;
  }
  if (args.subcommand().empty()) return usage(args.program());
  if (args.subcommand() == "survey") return cmd_survey(args);

  World world(static_cast<std::size_t>(args.get_int("universe", 3000)),
              static_cast<std::uint64_t>(args.get_int("seed", 42)));
  if (args.subcommand() == "build") return cmd_build(world, args);
  if (args.subcommand() == "churn") return cmd_churn(world, args);
  if (args.subcommand() == "harden") return cmd_harden(world, args);
  if (args.subcommand() == "crawl") return cmd_crawl(world, args);
  if (args.subcommand() == "measure") return cmd_measure(world, args);
  return usage(args.program());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args = util::Args::parse(argc, argv);
    return reject_unused_flags(args, dispatch(args));
  } catch (const std::exception& error) {
    std::cerr << "hispar: " << error.what() << "\n";
    return 1;
  }
}
