// The property-oracle suite: every determinism contract the repo
// ships, checked over *generated* configs instead of hand-picked ones
// (ISSUE 9 — the paper's landing-page lesson applied to the test
// suite). Each test plugs an oracle from testkit/oracles.h plus a
// generator from testkit/gen.h into testkit::check(); a failure prints
// the oracle's first-divergence message and a replayable seed line.
//
// CI-smoke budget: the jobs-identity properties run 50 generated
// configs per engine (the ISSUE 9 acceptance floor); the expensive
// resume properties (three engine runs per case) run fewer; the cheap
// grammar and model oracles run hundreds.
#include "testkit/oracles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "browser/adblock.h"
#include "browser/hb_detect.h"
#include "net/vantage_profile.h"
#include "testkit/property.h"

namespace {

using hispar::testkit::Counterexample;
using hispar::testkit::Gen;
using hispar::testkit::Property;
using hispar::testkit::PropertyConfig;

hispar::testkit::WorldPool& pool() {
  static hispar::testkit::WorldPool instance;
  return instance;
}

void expect_holds(const char* name, int iters, const Property& property) {
  PropertyConfig config;
  config.name = name;
  config.seed = 1;
  config.iters = iters;
  const Counterexample cx = hispar::testkit::check(config, property);
  EXPECT_FALSE(cx.failed) << cx.message << "\n  " << cx.replay;
}

hispar::core::VantageCampaignConfig gen_vantage_campaign(Gen& gen) {
  hispar::core::VantageCampaignConfig config;
  config.base = hispar::testkit::gen_campaign_config(gen);
  config.base.landing_loads = 1;  // vantage runs the campaign per profile
  config.profiles = hispar::net::VantageProfile::parse_list(
      hispar::testkit::gen_vantage_list_spec(gen));
  return config;
}

std::string scratch(const char* name) {
  return ::testing::TempDir() + "properties_" + name + ".ckpt";
}

// --- Jobs identity: >= 50 generated configs per engine ---

TEST(PropertySuite, MeasureJobsIdentity) {
  expect_holds("measure-jobs-identity", 50,
               [](Gen& gen) -> std::optional<std::string> {
                 const auto& world = pool().pick(gen);
                 auto config = hispar::testkit::gen_campaign_config(gen);
                 const std::size_t alt_jobs = 2 + gen.index(7);
                 return hispar::testkit::check_measure_jobs_identity(
                     world, config, alt_jobs);
               });
}

TEST(PropertySuite, ListBuildJobsIdentity) {
  expect_holds("listbuild-jobs-identity", 50,
               [](Gen& gen) -> std::optional<std::string> {
                 const auto& world = pool().pick(gen);
                 auto config = hispar::testkit::gen_listbuild_config(gen);
                 const std::size_t alt_jobs = 2 + gen.index(7);
                 return hispar::testkit::check_listbuild_jobs_identity(
                     world, config, alt_jobs);
               });
}

TEST(PropertySuite, VantageJobsIdentity) {
  expect_holds("vantage-jobs-identity", 50,
               [](Gen& gen) -> std::optional<std::string> {
                 const auto& world = pool().pick(gen);
                 auto config = gen_vantage_campaign(gen);
                 const std::size_t alt_jobs = 2 + gen.index(7);
                 return hispar::testkit::check_vantage_jobs_identity(
                     world, config, alt_jobs);
               });
}

TEST(PropertySuite, SessionJobsIdentity) {
  expect_holds("session-jobs-identity", 50,
               [](Gen& gen) -> std::optional<std::string> {
                 const auto& world = pool().pick(gen);
                 auto config = hispar::testkit::gen_session_config(gen);
                 const std::size_t alt_jobs = 2 + gen.index(7);
                 return hispar::testkit::check_session_jobs_identity(
                     world, config, alt_jobs);
               });
}

// --- Kill + resume identity (three engine runs per case, so fewer) ---

TEST(PropertySuite, MeasureResumeIdentity) {
  expect_holds("measure-resume-identity", 10,
               [](Gen& gen) -> std::optional<std::string> {
                 const auto& world = pool().pick(gen);
                 auto config = hispar::testkit::gen_campaign_config(gen);
                 return hispar::testkit::check_measure_resume_identity(
                     world, config, scratch("measure"));
               });
}

TEST(PropertySuite, ListBuildResumeIdentity) {
  expect_holds("listbuild-resume-identity", 10,
               [](Gen& gen) -> std::optional<std::string> {
                 const auto& world = pool().pick(gen);
                 auto config = hispar::testkit::gen_listbuild_config(gen);
                 return hispar::testkit::check_listbuild_resume_identity(
                     world, config, scratch("listbuild"));
               });
}

TEST(PropertySuite, VantageResumeIdentity) {
  expect_holds("vantage-resume-identity", 8,
               [](Gen& gen) -> std::optional<std::string> {
                 const auto& world = pool().pick(gen);
                 auto config = gen_vantage_campaign(gen);
                 return hispar::testkit::check_vantage_resume_identity(
                     world, config, scratch("vantage"));
               });
}

TEST(PropertySuite, SessionResumeIdentity) {
  expect_holds("session-resume-identity", 10,
               [](Gen& gen) -> std::optional<std::string> {
                 const auto& world = pool().pick(gen);
                 auto config = hispar::testkit::gen_session_config(gen);
                 return hispar::testkit::check_session_resume_identity(
                     world, config, scratch("session"));
               });
}

// --- Feature-off passthrough + fresh-run determinism ---

TEST(PropertySuite, MeasureObservabilityPassthrough) {
  expect_holds("measure-obs-passthrough", 20,
               [](Gen& gen) -> std::optional<std::string> {
                 const auto& world = pool().pick(gen);
                 auto config = hispar::testkit::gen_campaign_config(gen);
                 return hispar::testkit::check_measure_obs_passthrough(world,
                                                                       config);
               });
}

TEST(PropertySuite, SessionObservabilityPassthrough) {
  expect_holds("session-obs-passthrough", 15,
               [](Gen& gen) -> std::optional<std::string> {
                 const auto& world = pool().pick(gen);
                 auto config = hispar::testkit::gen_session_config(gen);
                 return hispar::testkit::check_session_obs_passthrough(world,
                                                                       config);
               });
}

TEST(PropertySuite, MeasureFreshRunDeterminism) {
  expect_holds("measure-run-determinism", 20,
               [](Gen& gen) -> std::optional<std::string> {
                 const auto& world = pool().pick(gen);
                 auto config = hispar::testkit::gen_campaign_config(gen);
                 return hispar::testkit::check_measure_run_determinism(world,
                                                                       config);
               });
}

// --- Grammar round-trips: parse(str(x)) == x ---

TEST(PropertySuite, FaultGrammarRoundTrip) {
  expect_holds("fault-roundtrip", 200,
               [](Gen& gen) -> std::optional<std::string> {
                 return hispar::testkit::check_fault_roundtrip(
                     hispar::testkit::gen_fault_spec(gen));
               });
}

// scale_fault_profile over generated profiles x scales: the scaled
// profile must always stay inside the parser's budget (total <= 1 —
// the bug was clamping each rate independently, letting the sum
// escape), must re-parse through the checkpoint grammar, and must be
// exactly proportional whenever no clamp or renormalization fires.
TEST(PropertySuite, ScaleFaultProfileStaysParseable) {
  expect_holds(
      "scale-fault-budget", 300,
      [](Gen& gen) -> std::optional<std::string> {
        namespace net = hispar::net;
        const std::string spec = hispar::testkit::gen_fault_spec(gen);
        const net::FaultProfile base = net::FaultProfile::parse(spec);
        const double scale = gen.in_range(0.0, 4.0);
        const net::FaultProfile scaled =
            hispar::core::scale_fault_profile(base, scale);

        const double total = scaled.total_rate();
        if (total > 1.0)
          return "total " + std::to_string(total) + " > 1 for spec '" +
                 spec + "' x " + std::to_string(scale);
        try {
          net::FaultProfile::parse(scaled.str());
        } catch (const std::exception& err) {
          return "scaled profile rejected by parser: " +
                 std::string(err.what());
        }

        const double raw_total = base.total_rate() * scale;
        if (raw_total <= 1.0) {
          const double pairs[][2] = {
              {base.dns_servfail, scaled.dns_servfail},
              {base.dns_timeout, scaled.dns_timeout},
              {base.connection_reset, scaled.connection_reset},
              {base.tls_failure, scaled.tls_failure},
              {base.http_5xx, scaled.http_5xx},
              {base.stall, scaled.stall},
              {base.truncation, scaled.truncation}};
          for (const auto& pair : pairs) {
            const double want = pair[0] * scale;
            if (std::abs(pair[1] - want) > 1e-12)
              return "rate not proportional under spec '" + spec + "' x " +
                     std::to_string(scale) + ": got " +
                     std::to_string(pair[1]) + " want " +
                     std::to_string(want);
          }
        }
        return std::nullopt;
      });
}

TEST(PropertySuite, SearchFaultGrammarRoundTrip) {
  expect_holds("search-fault-roundtrip", 200,
               [](Gen& gen) -> std::optional<std::string> {
                 return hispar::testkit::check_search_fault_roundtrip(
                     hispar::testkit::gen_search_fault_spec(gen));
               });
}

TEST(PropertySuite, ChaosGrammarRoundTrip) {
  expect_holds("chaos-roundtrip", 200,
               [](Gen& gen) -> std::optional<std::string> {
                 return hispar::testkit::check_chaos_roundtrip(
                     hispar::testkit::gen_chaos_spec(gen));
               });
}

TEST(PropertySuite, VantageGrammarRoundTrip) {
  expect_holds("vantage-roundtrip", 200,
               [](Gen& gen) -> std::optional<std::string> {
                 return hispar::testkit::check_vantage_roundtrip(
                     hispar::testkit::gen_vantage_spec(gen));
               });
}

// --- Compiled filter lists vs the glob reference ---

// Every URL in the committed fuzz corpus (tokens holding "://", split
// on newlines and commas): the list seeds' URLs plus the literals
// target's, texts the generators would not produce. Sorted, because
// directory order is unspecified.
std::vector<std::string> corpus_urls() {
  std::vector<std::string> urls;
  for (const auto& entry :
       std::filesystem::directory_iterator(HISPAR_FUZZ_CORPUS_DIR)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::string token;
    for (const char c : bytes.str() + "\n") {
      if (c != '\n' && c != ',') {
        token += c;
        continue;
      }
      if (token.find("://") != std::string::npos) urls.push_back(token);
      token.clear();
    }
  }
  std::sort(urls.begin(), urls.end());
  return urls;
}

TEST(PropertySuite, LiteralSetMatchesGlob) {
  const std::vector<std::string> urls = corpus_urls();
  ASSERT_GT(urls.size(), 10u);
  const std::vector<std::string> bundled[] = {
      hispar::browser::AdBlocker::easylist_lite_patterns(),
      hispar::browser::HbDetector::standard_exchange_patterns(),
      hispar::browser::HbDetector::standard_ad_network_patterns()};
  // Tagged sets: the bundled lists as the standard detectors compile
  // them, or one to three generated lists (sometimes an empty one, and
  // sometimes repeating an earlier list so literals are shared between
  // tags). Each text is generated against one of the lists.
  expect_holds(
      "literal-set-vs-glob", 400,
      [&](Gen& gen) -> std::optional<std::string> {
        std::vector<std::vector<std::string>> lists;
        if (gen.chance(0.25)) {
          lists.assign(std::begin(bundled), std::end(bundled));
        } else {
          const std::size_t count = 1 + gen.index(3);
          while (lists.size() < count) {
            if (gen.chance(0.1))
              lists.emplace_back();
            else if (!lists.empty() && gen.chance(0.2))
              lists.push_back(lists[gen.index(lists.size())]);
            else
              lists.push_back(hispar::testkit::gen_literal_patterns(gen));
          }
        }
        std::vector<std::string> texts = urls;
        for (int i = 0; i < 16; ++i)
          texts.push_back(hispar::testkit::gen_filter_text(
              gen, lists[gen.index(lists.size())]));
        return hispar::testkit::check_literal_set_matches_glob(lists, texts);
      });
}

// --- Reference-model state machines ---

TEST(PropertySuite, LruCacheMatchesModel) {
  expect_holds("lru-model", 300, [](Gen& gen) {
    return hispar::testkit::check_lru_model(gen);
  });
}

TEST(PropertySuite, HttpCacheMatchesModel) {
  expect_holds("http-cache-model", 300, [](Gen& gen) {
    return hispar::testkit::check_http_cache_model(gen);
  });
}

TEST(PropertySuite, CircuitBreakerMatchesModel) {
  expect_holds("breaker-model", 300, [](Gen& gen) {
    return hispar::testkit::check_breaker_model(gen);
  });
}

}  // namespace
