// hispar_fuzz: mutation fuzzer for every parser the artifacts flow
// through.
//
// Contract under test: each parser either succeeds or rejects cleanly
// with std::runtime_error / std::invalid_argument — never another
// exception type, never a crash, never UB (run the binary under
// ASan/UBSan; CI's fuzz-smoke job does). Grammar targets additionally
// check the parse/str round-trip on every accepted input, so a
// printing bug is a finding too. The `literals` target compiles pattern
// lists into a tagged util::LiteralSet and checks each list's bit on
// the text line against util::glob_match, the reference, so a matcher
// bug is a finding as well.
//
// Each iteration derives a case seed from the master --seed (the same
// scheme as testkit::check, so one seed reproduces the whole run),
// picks a target, and feeds it either a mutated seed artifact or raw
// random bytes. Seed artifacts are built in-process through the repo's
// own writers; --corpus DIR adds committed files (matched to targets by
// filename prefix) to the seed pool, and --write-corpus DIR exports the
// built-in seeds, which is how tests/fuzz_corpus/ was generated.
//
// On a finding the input is minimized (testkit::minimize_bytes), saved
// next to the cwd, and a one-line replay recipe is printed; exit 1.
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "browser/adblock.h"
#include "browser/hb_detect.h"
#include "core/serialization.h"
#include "net/faults.h"
#include "net/outage.h"
#include "net/vantage_profile.h"
#include "obs/json.h"
#include "testkit/gen.h"
#include "testkit/oracles.h"
#include "testkit/property.h"
#include "util/literal_set.h"

namespace {

using hispar::testkit::Gen;

struct Target {
  std::string name;
  std::function<void(const std::string&)> parse;
  // For grammar targets: parse + re-print, so str() bugs surface.
  std::function<std::optional<std::string>(const std::string&)> roundtrip;
  std::vector<std::string> seeds;
};

enum class Outcome { kParsed, kCleanReject, kFinding };

Outcome feed(const Target& target, const std::string& input,
             std::string* message) {
  try {
    target.parse(input);
  } catch (const std::invalid_argument&) {
    return Outcome::kCleanReject;
  } catch (const std::runtime_error&) {
    return Outcome::kCleanReject;
  } catch (const std::exception& e) {
    *message = std::string("unclean rejection: ") + typeid(e).name() + ": " +
               e.what();
    return Outcome::kFinding;
  } catch (...) {
    *message = "unclean rejection: non-std exception";
    return Outcome::kFinding;
  }
  if (target.roundtrip) {
    try {
      if (auto violation = target.roundtrip(input)) {
        *message = *violation;
        return Outcome::kFinding;
      }
    } catch (const std::exception& e) {
      *message = std::string("round-trip of accepted input threw: ") +
                 e.what();
      return Outcome::kFinding;
    }
  }
  return Outcome::kParsed;
}

// --- Seed artifacts, built through the writers ---

hispar::core::SiteObservation seed_observation(std::size_t i) {
  hispar::core::SiteObservation obs;
  obs.domain = "site" + std::to_string(i) + ".example";
  obs.bootstrap_rank = i + 1;
  obs.landing.bytes = 120000.0 + 7.0 * static_cast<double>(i);
  obs.landing.objects = 42.0;
  obs.landing.plt_ms = 1234.5;
  obs.landing.wait_samples_ms = {1.5, 2.25};
  obs.landing.third_parties = {"cdn.example", "ads.example"};
  obs.internals.resize(2);
  obs.internals[0].bytes = 45000.0;
  obs.internals[1].plt_ms = 654.3;
  hispar::core::FetchOutcome outcome;
  outcome.page_index = 0;
  outcome.load_ordinal = 1;
  obs.outcomes = {outcome, outcome};
  return obs;
}

hispar::core::HisparList seed_list() {
  hispar::core::HisparList list;
  list.name = "Hseed";
  list.week = 3;
  for (std::size_t i = 0; i < 3; ++i) {
    hispar::core::UrlSet set;
    set.domain = "site" + std::to_string(i) + ".example";
    set.bootstrap_rank = i + 1;
    set.urls = {"https://" + set.domain + "/",
                "https://" + set.domain + "/p/1",
                "https://" + set.domain + "/p/2"};
    set.page_indices = {0, 1, 2};
    list.sets.push_back(std::move(set));
  }
  return list;
}

std::string seed_measure_checkpoint() {
  std::ostringstream out;
  hispar::core::write_checkpoint_header(
      out, hispar::core::kCampaignCheckpointTag, 42);
  const std::vector<hispar::core::SiteObservation> observations = {
      seed_observation(0), seed_observation(1)};
  hispar::core::append_checkpoint_shard(out, 0, {0, 1}, observations);
  return out.str();
}

std::string seed_listbuild_checkpoint() {
  std::ostringstream out;
  hispar::core::write_checkpoint_header(
      out, hispar::core::kListBuildCheckpointTag, 42);
  hispar::core::ListBuildWeekRecord record;
  record.week = 0;
  record.list = seed_list();
  record.stats.week = 0;
  record.stats.sites_examined = 3;
  record.stats.sites_accepted = 3;
  record.stats.queries_billed = 9;
  hispar::core::append_listbuild_week(out, record);
  return out.str();
}

std::string seed_vantage_checkpoint() {
  std::ostringstream out;
  hispar::core::write_checkpoint_header(
      out, hispar::core::kVantageCheckpointTag, 42);
  const std::vector<hispar::core::SiteObservation> observations = {
      seed_observation(0), seed_observation(1)};
  hispar::core::append_vantage_block(out, 0, observations);
  return out.str();
}

std::string seed_session_checkpoint() {
  std::ostringstream out;
  hispar::core::write_checkpoint_header(
      out, hispar::core::kSessionCheckpointTag, 42);
  hispar::browser::CacheStats cache;
  cache.lookups = 10;
  cache.fresh_hits = 4;
  cache.misses = 6;
  cache.insertions = 6;
  hispar::core::append_session_block(out, 0, seed_observation(0), cache);
  return out.str();
}

std::string seed_json() {
  return R"({"schema":"hispar-metrics-v1","counters":{"loader.fetches":128,)"
         R"("dns.lookups":64},"gauges":{"shard.0.clock_s":1234.5},)"
         R"("hists":[{"name":"wait_ms","buckets":[1,2,3],"counts":[4,0,9]}],)"
         R"("note":"seed \"artifact\" with\nescapes","flags":[true,false,null]})";
}

// `literals` input: one `*literal*` pattern per line, lists separated
// by an empty line (list i gets tag bit i), then one text line. Rejects
// (std::invalid_argument) anything with no text line, a pattern of
// another shape, or more lists than a LiteralSet takes.
struct LiteralCase {
  std::vector<std::vector<std::string>> lists;
  std::string text;
};

LiteralCase parse_literal_case(const std::string& s) {
  if (s.find('\n') == std::string::npos)
    throw std::invalid_argument("literals: no text line after the patterns");
  LiteralCase c;
  c.lists.emplace_back();
  std::size_t start = 0;
  for (std::size_t end; (end = s.find('\n', start)) != std::string::npos;
       start = end + 1) {
    if (end == start)
      c.lists.emplace_back();
    else
      c.lists.back().push_back(s.substr(start, end - start));
  }
  c.text = s.substr(start);
  hispar::util::LiteralSet{c.lists};  // validates every shape and count
  return c;
}

std::string seed_literals(
    const std::vector<std::vector<std::string>>& lists,
    const std::string& text) {
  std::string out;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    if (i > 0) out += "\n";
    for (const std::string& pattern : lists[i]) out += pattern + "\n";
  }
  return out + text;
}

std::vector<Target> make_targets() {
  namespace core = hispar::core;
  namespace net = hispar::net;
  std::vector<Target> targets;

  targets.push_back({"measure",
                     [](const std::string& s) {
                       std::istringstream in(s);
                       core::read_checkpoint(in);
                     },
                     nullptr,
                     {seed_measure_checkpoint()}});
  targets.push_back({"listbuild",
                     [](const std::string& s) {
                       std::istringstream in(s);
                       core::read_listbuild_checkpoint(in);
                     },
                     nullptr,
                     {seed_listbuild_checkpoint()}});
  targets.push_back({"vantage",
                     [](const std::string& s) {
                       std::istringstream in(s);
                       core::read_vantage_checkpoint(in);
                     },
                     nullptr,
                     {seed_vantage_checkpoint()}});
  targets.push_back({"session",
                     [](const std::string& s) {
                       std::istringstream in(s);
                       core::read_session_checkpoint(in);
                     },
                     nullptr,
                     {seed_session_checkpoint()}});
  targets.push_back({"listcsv",
                     [](const std::string& s) { core::from_csv(s); },
                     nullptr,
                     {core::to_csv(seed_list())}});
  targets.push_back({"json",
                     [](const std::string& s) { hispar::obs::parse_json(s); },
                     nullptr,
                     {seed_json()}});

  targets.push_back(
      {"literals",
       [](const std::string& s) { parse_literal_case(s); },
       [](const std::string& s) {
         const LiteralCase c = parse_literal_case(s);
         return hispar::testkit::check_literal_set_matches_glob(c.lists,
                                                                {c.text});
       },
       {seed_literals({hispar::browser::AdBlocker::easylist_lite_patterns()},
                      "https://securepubads.g.doubleclick.net/track/123-4"),
        seed_literals(
            {hispar::browser::HbDetector::standard_exchange_patterns()},
            "https://ib.adnxs.com/ut/v3/prebid"),
        seed_literals(
            {hispar::browser::HbDetector::standard_ad_network_patterns()},
            "https://www.example.com/asset/0-1"),
        // The three lists as one tagged set, as the standard detectors
        // share them; the text matches all three.
        seed_literals(
            {hispar::browser::AdBlocker::easylist_lite_patterns(),
             hispar::browser::HbDetector::standard_exchange_patterns(),
             hispar::browser::HbDetector::standard_ad_network_patterns()},
            "https://ib.adnxs.com/ut/v3/prebid?ref=ad.doubleclick.net")}});

  const auto grammar_roundtrip = [](auto parse) {
    return [parse](const std::string& s) -> std::optional<std::string> {
      const std::string printed = parse(s);
      const std::string reprinted = parse(printed);
      if (printed != reprinted)
        return "accepted spec '" + s + "' is not a str() fixpoint: '" +
               printed + "' reprints as '" + reprinted + "'";
      return std::nullopt;
    };
  };
  targets.push_back(
      {"faults",
       [](const std::string& s) { net::FaultProfile::parse(s); },
       grammar_roundtrip([](const std::string& s) {
         return net::FaultProfile::parse(s).str();
       }),
       {"none", "uniform:0.05", "http_5xx=0.1,stall=0.05,dns_timeout=0.01"}});
  targets.push_back(
      {"searchfaults",
       [](const std::string& s) { net::SearchFaultProfile::parse(s); },
       grammar_roundtrip([](const std::string& s) {
         return net::SearchFaultProfile::parse(s).str();
       }),
       {"none", "uniform:0.1", "query_timeout=0.05,rate_limited=0.02"}});
  targets.push_back(
      {"chaos",
       [](const std::string& s) { net::OutageSchedule::parse(s); },
       grammar_roundtrip([](const std::string& s) {
         return net::OutageSchedule::parse(s).str();
       }),
       {"none",
        "cdn:provider=2,kind=http_5xx,sev=0.9,start_s=120,dur_s=300",
        "resolver:kind=dns_timeout,sev=0.5,mtbf_s=60,mttr_s=10,horizon_s=900;"
        "origin:domain=news.example,kind=stall,sev=0.25,start_s=0,dur_s=60;"
        "search:kind=rate_limited,sev=1,mtbf_s=120,mttr_s=30"}});
  targets.push_back(
      {"vantagespec",
       [](const std::string& s) { net::VantageProfile::parse_list(s); },
       grammar_roundtrip([](const std::string& s) {
         const auto profiles = net::VantageProfile::parse_list(s);
         std::string printed;
         for (const auto& p : profiles) {
           if (!printed.empty()) printed += ';';
           printed += p.str();
         }
         return printed;
       }),
       {"default",
        "eu-1:region=eu:resolver=public:doh=1:access_ms=20:bandwidth=5000",
        "na-isp;as-edge:region=as:edge=na:faults=1.5"}});
  return targets;
}

void load_corpus(std::vector<Target>& targets, const std::string& dir) {
  std::size_t loaded = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string stem = entry.path().filename().string();
    for (Target& target : targets) {
      if (stem.rfind(target.name + "-", 0) != 0) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      target.seeds.push_back(bytes.str());
      ++loaded;
      break;
    }
  }
  std::cout << "loaded " << loaded << " corpus files from " << dir << "\n";
}

void write_corpus(const std::vector<Target>& targets, const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const Target& target : targets) {
    for (std::size_t i = 0; i < target.seeds.size(); ++i) {
      const std::string path =
          dir + "/" + target.name + "-" + std::to_string(i) + ".seed";
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << target.seeds[i];
    }
  }
  std::cout << "wrote seed corpus to " << dir << "\n";
}

int usage() {
  std::cerr << "usage: hispar_fuzz [--iters N] [--seed S] [--target NAME]\n"
               "                   [--corpus DIR] [--write-corpus DIR]\n"
               "targets: measure listbuild vantage session listcsv json\n"
               "         literals faults searchfaults chaos vantagespec\n"
               "         (default all)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  long long iters = 1000;
  std::uint64_t seed = 1;
  std::string only_target;
  std::string corpus_dir;
  std::string write_corpus_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "hispar_fuzz: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--iters") {
      iters = std::stoll(value());
    } else if (arg == "--seed") {
      seed = std::stoull(value());
    } else if (arg == "--target") {
      only_target = value();
    } else if (arg == "--corpus") {
      corpus_dir = value();
    } else if (arg == "--write-corpus") {
      write_corpus_dir = value();
    } else {
      return usage();
    }
  }

  std::vector<Target> targets = make_targets();
  if (!write_corpus_dir.empty()) {
    write_corpus(targets, write_corpus_dir);
    return 0;
  }
  if (!corpus_dir.empty()) load_corpus(targets, corpus_dir);
  if (!only_target.empty()) {
    std::vector<Target> filtered;
    for (Target& target : targets)
      if (target.name == only_target) filtered.push_back(std::move(target));
    if (filtered.empty()) {
      std::cerr << "hispar_fuzz: unknown target '" << only_target << "'\n";
      return usage();
    }
    targets = std::move(filtered);
  }

  long long parsed = 0, rejected = 0;
  for (long long iter = 0; iter < iters; ++iter) {
    const std::uint64_t cseed = hispar::testkit::case_seed(seed, iter);
    // Ramp depth like the property runner: later iterations stack more
    // mutations per input.
    const int size =
        10 + static_cast<int>((50 * iter) / (iters > 1 ? iters - 1 : 1));
    Gen gen(cseed, size);
    Target& target = targets[gen.index(targets.size())];
    const std::string input =
        gen.chance(0.85)
            ? hispar::testkit::mutate(
                  gen, target.seeds[gen.index(target.seeds.size())])
            : hispar::testkit::gen_bytes(gen, 1 + gen.index(512));

    std::string message;
    const Outcome outcome = feed(target, input, &message);
    if (outcome == Outcome::kParsed) ++parsed;
    if (outcome == Outcome::kCleanReject) ++rejected;
    if (outcome != Outcome::kFinding) continue;

    const std::string minimized = hispar::testkit::minimize_bytes(
        input,
        [&](const std::string& candidate) {
          std::string ignored;
          return feed(target, candidate, &ignored) == Outcome::kFinding;
        },
        512);
    const std::string crash_path = "fuzz-finding-" + target.name + ".bin";
    std::ofstream out(crash_path, std::ios::binary | std::ios::trunc);
    out << minimized;
    out.close();
    std::cerr << "FINDING in target '" << target.name << "' at iteration "
              << iter << ": " << message << "\n"
              << "minimized input (" << minimized.size()
              << " bytes) written to " << crash_path << "\n"
              << "replay: hispar_fuzz --target " << target.name
              << " --seed " << seed << " --iters " << (iter + 1)
              << "   (case seed " << cseed << ", size " << size << ")\n";
    return 1;
  }
  std::cout << "hispar_fuzz: " << iters << " iterations over "
            << targets.size() << " targets, " << parsed << " parsed, "
            << rejected << " cleanly rejected, 0 findings\n";
  return 0;
}
