#include "testkit/oracles.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "browser/http_cache.h"
#include "cdn/lru_cache.h"
#include "core/analyses.h"
#include "core/serialization.h"
#include "net/faults.h"
#include "net/outage.h"
#include "net/vantage_profile.h"
#include "obs/trace.h"
#include "util/literal_set.h"
#include "util/strings.h"

namespace hispar::testkit {

namespace {

// First-divergence report: byte offset plus a short context window, so
// a CI log names the artifact region without dumping megabytes.
std::optional<std::string> bytes_equal(const std::string& what,
                                       const std::string& a,
                                       const std::string& b) {
  if (a == b) return std::nullopt;
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t at = 0;
  while (at < n && a[at] == b[at]) ++at;
  const auto context = [&](const std::string& s) {
    const std::size_t from = at < 40 ? 0 : at - 40;
    return s.substr(from, std::min<std::size_t>(80, s.size() - from));
  };
  return what + " differs at byte " + std::to_string(at) + " (sizes " +
         std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
         "): \"..." + context(a) + "\" vs \"..." + context(b) + "\"";
}

void append_telemetry(std::ostream& out, const obs::RunTelemetry& telemetry) {
  telemetry.metrics.write_json(out);
  obs::write_chrome_trace(out, telemetry.spans);
}

// Tears a line-oriented checkpoint: keeps the header plus roughly half
// of the completed blocks (lines up to the keep-th `terminator` line)
// and appends a garbage partial record — exactly what a killed writer
// leaves behind.
void tear_checkpoint(const std::string& path, const char* terminator) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  std::size_t terminators = 0;
  for (const std::string& line : lines)
    if (line.rfind(terminator, 0) == 0) ++terminators;
  const std::size_t keep = terminators / 2;  // 0 keeps the header only

  std::ofstream out(path, std::ios::trunc);
  std::size_t seen = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0 && seen >= keep) break;
    out << lines[i] << '\n';
    if (lines[i].rfind(terminator, 0) == 0) ++seen;
  }
  out << "site,0,torn-partial-record";  // no trailing newline: torn
}

template <typename Runner>
std::optional<std::string> jobs_identity(const char* engine,
                                         const Runner& run,
                                         std::size_t alt_jobs,
                                         std::size_t& jobs_field) {
  jobs_field = 1;
  const std::string reference = run();
  jobs_field = alt_jobs;
  const std::string other = run();
  return bytes_equal(std::string(engine) + " artifacts, jobs 1 vs " +
                         std::to_string(alt_jobs),
                     reference, other);
}

template <typename Runner>
std::optional<std::string> resume_identity(
    const char* engine, const char* terminator, const Runner& run,
    std::string& checkpoint_field, const std::string& scratch_path) {
  std::remove(scratch_path.c_str());
  checkpoint_field.clear();
  const std::string reference = run();
  checkpoint_field = scratch_path;
  const std::string checkpointed = run();
  auto mismatch = bytes_equal(
      std::string(engine) + " artifacts, checkpointed vs plain run",
      reference, checkpointed);
  if (!mismatch) {
    tear_checkpoint(scratch_path, terminator);
    const std::string resumed = run();
    mismatch = bytes_equal(
        std::string(engine) + " artifacts, torn-checkpoint resume vs plain",
        reference, resumed);
  }
  std::remove(scratch_path.c_str());
  return mismatch;
}

}  // namespace

const std::array<WorldShape, WorldPool::kShapeCount>& WorldPool::shapes() {
  static const std::array<WorldShape, kShapeCount> kShapes{{
      {150, 37, 300, 10, 5, 3},
      {120, 11, 200, 8, 4, 3},
      {200, 5, 400, 12, 6, 4},
  }};
  return kShapes;
}

const World& WorldPool::at(std::size_t shape) {
  shape %= kShapeCount;
  if (!worlds_[shape]) {
    const WorldShape& s = shapes()[shape];
    auto world = std::make_unique<World>();
    world->web = std::make_unique<web::SyntheticWeb>(
        web::SyntheticWebConfig{s.universe, s.seed, s.third_party_tail,
                                false});
    world->toplists = std::make_unique<toplist::TopListFactory>(*world->web);
    world->engine = std::make_unique<search::SearchEngine>(*world->web);
    core::HisparBuilder builder(*world->web, *world->toplists, *world->engine);
    core::HisparConfig config;
    config.target_sites = s.list_sites;
    config.urls_per_site = s.urls_per_site;
    config.min_internal_results = s.min_internal_results;
    world->list = builder.build(config, /*week=*/0);
    worlds_[shape] = std::move(world);
  }
  return *worlds_[shape];
}

std::string measure_bytes(const World& world, core::CampaignConfig config) {
  core::MeasurementCampaign campaign(*world.web, config);
  const auto sites = campaign.run(world.list);
  std::ostringstream out;
  core::write_measure_csv(out, sites);
  if (config.observability.enabled) append_telemetry(out, campaign.telemetry());
  return out.str();
}

std::string listbuild_bytes(const World& world, core::ListBuildConfig config) {
  core::ListBuildCampaign campaign(*world.web, *world.toplists, config);
  const core::ListBuildResult result = campaign.run();
  std::ostringstream out;
  for (const auto& list : result.lists) core::write_csv(list, out);
  core::write_churn_csv(out, result.lists);
  core::write_cost_ledger_csv(out, result.weeks);
  if (config.observability.enabled) append_telemetry(out, campaign.telemetry());
  return out.str();
}

std::string vantage_bytes(const World& world,
                          core::VantageCampaignConfig config) {
  core::VantageCampaign campaign(*world.web, config);
  const auto result = campaign.run(world.list);
  std::ostringstream out;
  for (const auto& observations : result.observations)
    core::write_measure_csv(out, observations);
  if (config.base.observability.enabled)
    append_telemetry(out, campaign.telemetry());
  return out.str();
}

std::string session_bytes(const World& world, core::SessionConfig config) {
  core::SessionCampaign campaign(*world.web, config);
  const auto sites = campaign.run(world.list);
  std::ostringstream out;
  core::write_measure_csv(out, sites);
  core::write_warm_hits_csv(out, sites, campaign.cache_stats());
  if (config.base.observability.enabled)
    append_telemetry(out, campaign.telemetry());
  return out.str();
}

std::optional<std::string> check_measure_jobs_identity(
    const World& world, core::CampaignConfig config, std::size_t alt_jobs) {
  return jobs_identity(
      "measure", [&] { return measure_bytes(world, config); }, alt_jobs,
      config.jobs);
}

std::optional<std::string> check_listbuild_jobs_identity(
    const World& world, core::ListBuildConfig config, std::size_t alt_jobs) {
  return jobs_identity(
      "list-build", [&] { return listbuild_bytes(world, config); }, alt_jobs,
      config.jobs);
}

std::optional<std::string> check_vantage_jobs_identity(
    const World& world, core::VantageCampaignConfig config,
    std::size_t alt_jobs) {
  return jobs_identity(
      "vantage", [&] { return vantage_bytes(world, config); }, alt_jobs,
      config.base.jobs);
}

std::optional<std::string> check_session_jobs_identity(
    const World& world, core::SessionConfig config, std::size_t alt_jobs) {
  return jobs_identity(
      "session", [&] { return session_bytes(world, config); }, alt_jobs,
      config.base.jobs);
}

std::optional<std::string> check_measure_resume_identity(
    const World& world, core::CampaignConfig config,
    const std::string& scratch_path) {
  config.jobs = 1;
  return resume_identity(
      "measure", "endshard,", [&] { return measure_bytes(world, config); },
      config.checkpoint_path, scratch_path);
}

std::optional<std::string> check_listbuild_resume_identity(
    const World& world, core::ListBuildConfig config,
    const std::string& scratch_path) {
  config.jobs = 1;
  return resume_identity(
      "list-build", "endweek,", [&] { return listbuild_bytes(world, config); },
      config.checkpoint_path, scratch_path);
}

std::optional<std::string> check_vantage_resume_identity(
    const World& world, core::VantageCampaignConfig config,
    const std::string& scratch_path) {
  config.base.jobs = 1;
  return resume_identity(
      "vantage", "endvantage,", [&] { return vantage_bytes(world, config); },
      config.checkpoint_path, scratch_path);
}

std::optional<std::string> check_session_resume_identity(
    const World& world, core::SessionConfig config,
    const std::string& scratch_path) {
  config.base.jobs = 1;
  return resume_identity(
      "session", "endsession,", [&] { return session_bytes(world, config); },
      config.checkpoint_path, scratch_path);
}

std::optional<std::string> check_measure_obs_passthrough(
    const World& world, core::CampaignConfig config) {
  config.observability = {};
  const std::string off = measure_bytes(world, config);
  config.observability.enabled = true;
  core::MeasurementCampaign campaign(*world.web, config);
  const auto sites = campaign.run(world.list);
  std::ostringstream csv;
  core::write_measure_csv(csv, sites);
  return bytes_equal("measure CSV, observability off vs on", off, csv.str());
}

std::optional<std::string> check_session_obs_passthrough(
    const World& world, core::SessionConfig config) {
  config.base.observability = {};
  const std::string off = session_bytes(world, config);
  config.base.observability.enabled = true;
  core::SessionCampaign campaign(*world.web, config);
  const auto sites = campaign.run(world.list);
  std::ostringstream csv;
  core::write_measure_csv(csv, sites);
  core::write_warm_hits_csv(csv, sites, campaign.cache_stats());
  return bytes_equal("session CSVs, observability off vs on", off, csv.str());
}

std::optional<std::string> check_measure_run_determinism(
    const World& world, core::CampaignConfig config) {
  const std::string first = measure_bytes(world, config);
  const std::string second = measure_bytes(world, config);
  return bytes_equal("measure artifacts, run 1 vs run 2", first, second);
}

namespace {

template <typename Parse>
std::optional<std::string> roundtrip(const char* grammar,
                                     const std::string& spec,
                                     const Parse& parse) {
  const std::string printed = parse(spec);
  const std::string reprinted = parse(printed);
  if (printed != reprinted)
    return std::string(grammar) + " round-trip not a fixpoint for '" + spec +
           "': '" + printed + "' reprints as '" + reprinted + "'";
  return std::nullopt;
}

}  // namespace

std::optional<std::string> check_fault_roundtrip(const std::string& spec) {
  return roundtrip("fault profile", spec, [](const std::string& s) {
    return net::FaultProfile::parse(s).str();
  });
}

std::optional<std::string> check_search_fault_roundtrip(
    const std::string& spec) {
  return roundtrip("search-fault profile", spec, [](const std::string& s) {
    return net::SearchFaultProfile::parse(s).str();
  });
}

std::optional<std::string> check_chaos_roundtrip(const std::string& spec) {
  return roundtrip("chaos schedule", spec, [](const std::string& s) {
    return net::OutageSchedule::parse(s).str();
  });
}

std::optional<std::string> check_vantage_roundtrip(const std::string& spec) {
  return roundtrip("vantage profile", spec, [](const std::string& s) {
    return net::VantageProfile::parse(s).str();
  });
}

namespace {

// Bytes outside printable ASCII as \xNN, so a failing pattern or text
// with NUL or high bytes prints legibly and replays exactly.
std::string escaped(std::string_view bytes) {
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f && byte != '\\') {
      out += c;
      continue;
    }
    char buf[8];
    std::snprintf(buf, sizeof buf, "\\x%02x", byte);
    out += buf;
  }
  return out;
}

}  // namespace

std::optional<std::string> check_literal_set_matches_glob(
    const std::vector<std::vector<std::string>>& lists,
    const std::vector<std::string>& texts) {
  const util::LiteralSet set(lists);
  const auto describe = [&](const std::string& text) {
    std::string out = " for text '" + escaped(text) + "' over lists";
    for (const auto& list : lists) {
      out += " [";
      for (const std::string& p : list) out += " '" + escaped(p) + "'";
      out += " ]";
    }
    return out;
  };
  const std::uint32_t masks = lists.size() <= 4 ? 1u << lists.size() : 16u;
  for (const std::string& text : texts) {
    std::uint32_t reference = 0;
    for (std::size_t i = 0; i < lists.size(); ++i)
      if (std::any_of(lists[i].begin(), lists[i].end(),
                      [&](const std::string& p) {
                        return util::glob_match(p, text);
                      }))
        reference |= std::uint32_t{1} << i;
    const std::uint32_t flags = set.flags(text);
    if (flags != reference)
      return "LiteralSet flags " + std::to_string(flags) +
             ", glob_match says " + std::to_string(reference) +
             describe(text);
    for (std::uint32_t wanted = 0; wanted < masks; ++wanted)
      if (set.flags(text, wanted) != (reference & wanted))
        return "LiteralSet flags(wanted=" + std::to_string(wanted) +
               ") is " + std::to_string(set.flags(text, wanted)) +
               ", glob_match says " + std::to_string(reference & wanted) +
               describe(text);
  }
  return std::nullopt;
}

// --- Reference-model oracles ---

namespace {

// Small shared helpers for the op-log style failure messages.
std::string tail_of(const std::vector<std::string>& log, std::size_t n = 8) {
  std::string out;
  const std::size_t from = log.size() > n ? log.size() - n : 0;
  for (std::size_t i = from; i < log.size(); ++i) out += log[i] + "; ";
  return out;
}

std::string model_key(Gen& gen) { return "k" + std::to_string(gen.index(6)); }

}  // namespace

std::optional<std::string> check_lru_model(Gen& gen) {
  struct Entry {
    std::string key;
    std::size_t size;
  };
  const std::size_t capacity = 1 + gen.index(48);
  cdn::LruCache cache(capacity);
  std::vector<Entry> model;  // front = most recent
  std::size_t used = 0;
  std::uint64_t evictions = 0;
  std::vector<std::string> log;

  const auto find = [&](const std::string& key) {
    return std::find_if(model.begin(), model.end(),
                        [&](const Entry& e) { return e.key == key; });
  };
  const int ops = 20 + 4 * gen.size();
  for (int op = 0; op < ops; ++op) {
    const std::string key = model_key(gen);
    switch (gen.index(4)) {
      case 0: {  // touch
        log.push_back("touch " + key);
        const bool hit = cache.touch(key);
        auto it = find(key);
        const bool model_hit = it != model.end();
        if (model_hit) std::rotate(model.begin(), it, it + 1);
        if (hit != model_hit)
          return "LruCache::touch(" + key + ") = " + std::to_string(hit) +
                 ", model says " + std::to_string(model_hit) +
                 " [ops: " + tail_of(log) + "]";
        break;
      }
      case 1: {  // insert
        const std::size_t size = gen.index(capacity + 8);
        log.push_back("insert " + key + "/" + std::to_string(size));
        cache.insert(key, size);
        auto it = find(key);
        if (size > capacity) {
          if (it != model.end()) {
            used -= it->size;
            model.erase(it);
          }
        } else {
          if (it != model.end()) {
            used -= it->size;
            it->size = size;
            used += size;
            std::rotate(model.begin(), it, it + 1);
          } else {
            model.insert(model.begin(), {key, size});
            used += size;
          }
          while (used > capacity) {
            used -= model.back().size;
            model.pop_back();
            ++evictions;
          }
        }
        break;
      }
      case 2: {  // contains (read-only)
        const bool hit = cache.contains(key);
        const bool model_hit = find(key) != model.end();
        if (hit != model_hit)
          return "LruCache::contains(" + key + ") = " + std::to_string(hit) +
                 ", model says " + std::to_string(model_hit) +
                 " [ops: " + tail_of(log) + "]";
        break;
      }
      default:
        if (gen.chance(0.05)) {  // clear is rare: it resets warmth
          log.push_back("clear");
          cache.clear();
          model.clear();
          used = 0;
        }
        break;
    }
    if (cache.used_bytes() != used || cache.entries() != model.size() ||
        cache.evictions() != evictions)
      return "LruCache state diverged: used " +
             std::to_string(cache.used_bytes()) + "/" + std::to_string(used) +
             ", entries " + std::to_string(cache.entries()) + "/" +
             std::to_string(model.size()) + ", evictions " +
             std::to_string(cache.evictions()) + "/" +
             std::to_string(evictions) + " [ops: " + tail_of(log) + "]";
  }
  return std::nullopt;
}

std::optional<std::string> check_http_cache_model(Gen& gen) {
  struct Entry {
    std::string key;
    std::size_t size;
    double expires_s;
  };
  const std::size_t capacity = 1 + gen.index(48);
  browser::HttpCache cache(capacity);
  std::vector<Entry> model;  // front = most recent
  browser::CacheStats stats;
  std::size_t used = 0;
  double now_s = 0.0;
  std::vector<std::string> log;

  const auto find = [&](const std::string& key) {
    return std::find_if(model.begin(), model.end(),
                        [&](const Entry& e) { return e.key == key; });
  };
  const int ops = 20 + 4 * gen.size();
  for (int op = 0; op < ops; ++op) {
    now_s += gen.in_range(0.0, 8.0);
    const std::string key = model_key(gen);
    switch (gen.index(3)) {
      case 0: {  // lookup
        log.push_back("lookup " + key);
        const browser::CacheOutcome outcome = cache.lookup(key, now_s);
        ++stats.lookups;
        browser::CacheOutcome expected;
        auto it = find(key);
        if (it == model.end()) {
          expected = browser::CacheOutcome::kMiss;
          ++stats.misses;
        } else if (now_s < it->expires_s) {
          expected = browser::CacheOutcome::kFresh;
          ++stats.fresh_hits;
          std::rotate(model.begin(), it, it + 1);
        } else {
          expected = browser::CacheOutcome::kStale;
        }
        if (outcome != expected)
          return "HttpCache::lookup(" + key + ") = " +
                 std::to_string(static_cast<int>(outcome)) +
                 ", model says " +
                 std::to_string(static_cast<int>(expected)) +
                 " [ops: " + tail_of(log) + "]";
        break;
      }
      case 1: {  // insert
        const std::size_t size = gen.index(capacity + 8);
        const double lifetime_s = gen.in_range(0.0, 30.0);
        log.push_back("insert " + key + "/" + std::to_string(size));
        cache.insert(key, size, now_s, lifetime_s);
        auto it = find(key);
        if (size > capacity) {
          if (it != model.end()) {
            used -= it->size;
            model.erase(it);
            ++stats.evictions;
          }
        } else {
          if (it != model.end()) {
            used -= it->size;
            it->size = size;
            it->expires_s = now_s + lifetime_s;
            used += size;
            std::rotate(model.begin(), it, it + 1);
          } else {
            model.insert(model.begin(), {key, size, now_s + lifetime_s});
            used += size;
            ++stats.insertions;
          }
          while (used > capacity) {
            used -= model.back().size;
            model.pop_back();
            ++stats.evictions;
          }
        }
        break;
      }
      default: {  // revalidated
        const double lifetime_s = gen.in_range(0.0, 30.0);
        log.push_back("revalidate " + key);
        cache.revalidated(key, now_s, lifetime_s);
        auto it = find(key);
        if (it != model.end()) {
          ++stats.revalidations;
          it->expires_s = now_s + lifetime_s;
          std::rotate(model.begin(), it, it + 1);
        }
        break;
      }
    }
    if (cache.used_bytes() != used || cache.entries() != model.size() ||
        !(cache.stats() == stats))
      return "HttpCache state diverged: used " +
             std::to_string(cache.used_bytes()) + "/" + std::to_string(used) +
             ", entries " + std::to_string(cache.entries()) + "/" +
             std::to_string(model.size()) + " [ops: " + tail_of(log) + "]";
  }
  return std::nullopt;
}

std::optional<std::string> check_breaker_model(Gen& gen) {
  net::BreakerConfig config;
  config.failure_threshold = 1 + static_cast<int>(gen.index(6));
  config.cooldown_s = gen.in_range(1.0, 30.0);
  config.half_open_successes = 1 + static_cast<int>(gen.index(2));
  net::CircuitBreaker breaker(config);

  // Reference state machine, straight from DESIGN.md §14's contract.
  net::BreakerState state = net::BreakerState::kClosed;
  int consecutive_failures = 0;
  int probe_successes = 0;
  double opened_at_s = 0.0;
  std::uint64_t times_opened = 0;
  std::uint64_t denials = 0;
  double now_s = 0.0;
  std::vector<std::string> log;

  const auto effective_state = [&](double now) {
    if (state == net::BreakerState::kOpen &&
        now >= opened_at_s + config.cooldown_s)
      return net::BreakerState::kHalfOpen;
    return state;
  };

  const int ops = 20 + 4 * gen.size();
  for (int op = 0; op < ops; ++op) {
    now_s += gen.in_range(0.0, config.cooldown_s * 0.6);
    switch (gen.index(3)) {
      case 0: {  // allow
        log.push_back("allow@" + std::to_string(now_s));
        const bool allowed = breaker.allow(now_s);
        bool expected;
        if (state == net::BreakerState::kOpen) {
          if (now_s >= opened_at_s + config.cooldown_s) {
            state = net::BreakerState::kHalfOpen;
            probe_successes = 0;
            expected = true;
          } else {
            ++denials;
            expected = false;
          }
        } else {
          expected = true;
        }
        if (allowed != expected)
          return "CircuitBreaker::allow = " + std::to_string(allowed) +
                 ", model says " + std::to_string(expected) +
                 " [ops: " + tail_of(log) + "]";
        break;
      }
      case 1:  // success
        log.push_back("success");
        breaker.record_success(now_s);
        if (state == net::BreakerState::kHalfOpen) {
          if (++probe_successes >= config.half_open_successes) {
            state = net::BreakerState::kClosed;
            consecutive_failures = 0;
            probe_successes = 0;
          }
        } else {
          consecutive_failures = 0;
        }
        break;
      default:  // failure
        log.push_back("failure@" + std::to_string(now_s));
        breaker.record_failure(now_s);
        if (state == net::BreakerState::kHalfOpen) {
          state = net::BreakerState::kOpen;
          opened_at_s = now_s;
          probe_successes = 0;
          ++times_opened;
        } else if (state == net::BreakerState::kClosed &&
                   ++consecutive_failures >= config.failure_threshold) {
          state = net::BreakerState::kOpen;
          opened_at_s = now_s;
          ++times_opened;
        }
        break;
    }
    if (breaker.state(now_s) != effective_state(now_s) ||
        breaker.denials() != denials ||
        breaker.times_opened() != times_opened)
      return "CircuitBreaker state diverged: state " +
             std::to_string(static_cast<int>(breaker.state(now_s))) + "/" +
             std::to_string(static_cast<int>(effective_state(now_s))) +
             ", denials " + std::to_string(breaker.denials()) + "/" +
             std::to_string(denials) + ", opened " +
             std::to_string(breaker.times_opened()) + "/" +
             std::to_string(times_opened) + " [ops: " + tail_of(log) + "]";

    // Kill + resume for breakers: serialize the observable state into a
    // fresh breaker (the checkpoint path) and continue the sequence.
    if (gen.chance(0.05)) {
      log.push_back("restore");
      net::CircuitBreaker fresh(config);
      fresh.restore(breaker.state(-1.0), breaker.consecutive_failures(),
                    breaker.opened_at_s(), breaker.times_opened(),
                    breaker.denials());
      breaker = fresh;
      probe_successes = 0;  // restore() resets the probe count
      state = effective_state(-1.0);
    }
  }
  return std::nullopt;
}

}  // namespace hispar::testkit
