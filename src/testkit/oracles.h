// Invariant oracles: reusable checks of the repo's determinism
// contracts, run against generated configs.
//
// Each oracle returns std::nullopt when the invariant holds, or a
// message describing the violation (first differing byte, mismatching
// model field) — the exact shape testkit::Property expects, so tests
// plug an oracle plus a generator straight into testkit::check().
//
// The catalog:
//  * jobs identity     — every artifact byte identical for --jobs 1 vs N
//    (per engine: measure, list-build, vantage, session);
//  * resume identity   — a torn checkpoint (completed blocks + garbage
//    tail) resumes to bytes identical to an uninterrupted run;
//  * run determinism   — two fresh runs of one config agree byte-wise
//    (catches hidden global state);
//  * obs passthrough   — toggling observability never changes a
//    measurement byte (feature-off ⇒ bytes untouched);
//  * grammar round-trip — parse/str is a fixpoint for the fault,
//    search-fault, chaos and vantage spec grammars;
//  * literal set       — util::LiteralSet's tag bits agree with util::glob_match,
//    its reference, on every text;
//  * model oracles     — HttpCache, cdn::LruCache and CircuitBreaker
//    agree with simple reference models over generated op sequences.
//
// Campaign oracles run over a WorldPool world: a small synthetic web
// plus a built Hispar list, cached per shape because web construction
// dwarfs the tiny campaigns the oracles run.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/hispar.h"
#include "core/list_build.h"
#include "core/measurement.h"
#include "core/session.h"
#include "core/vantage.h"
#include "testkit/gen.h"

namespace hispar::testkit {

struct WorldShape {
  std::size_t universe;
  std::uint64_t seed;
  std::size_t third_party_tail;
  std::size_t list_sites;
  std::size_t urls_per_site;
  std::size_t min_internal_results;
};

struct World {
  std::unique_ptr<web::SyntheticWeb> web;
  std::unique_ptr<toplist::TopListFactory> toplists;
  std::unique_ptr<search::SearchEngine> engine;
  core::HisparList list;
};

// Lazily builds and caches one World per shape; `pick` draws a shape
// index from a Gen so generated cases spread across shapes while
// construction cost is paid once per shape per process.
class WorldPool {
 public:
  static constexpr std::size_t kShapeCount = 3;
  static const std::array<WorldShape, kShapeCount>& shapes();

  const World& at(std::size_t shape);
  const World& pick(Gen& gen) { return at(gen.index(kShapeCount)); }

 private:
  std::array<std::unique_ptr<World>, kShapeCount> worlds_;
};

// --- Artifact-byte runners ---
// Run the engine over the world's list and return every artifact byte
// (results CSV, then metrics JSON + trace JSON when observability is
// on). These are what the identity oracles compare.

std::string measure_bytes(const World& world, core::CampaignConfig config);
std::string listbuild_bytes(const World& world, core::ListBuildConfig config);
std::string vantage_bytes(const World& world,
                          core::VantageCampaignConfig config);
std::string session_bytes(const World& world, core::SessionConfig config);

// --- Engine identity oracles ---

std::optional<std::string> check_measure_jobs_identity(
    const World& world, core::CampaignConfig config, std::size_t alt_jobs);
std::optional<std::string> check_listbuild_jobs_identity(
    const World& world, core::ListBuildConfig config, std::size_t alt_jobs);
std::optional<std::string> check_vantage_jobs_identity(
    const World& world, core::VantageCampaignConfig config,
    std::size_t alt_jobs);
std::optional<std::string> check_session_jobs_identity(
    const World& world, core::SessionConfig config, std::size_t alt_jobs);

// Resume oracles: reference run without checkpoint, full checkpointed
// run, then the checkpoint is torn (half the completed blocks kept, a
// garbage partial record appended) and the engine re-run against it.
// `scratch_path` is a caller-owned temp file path; it is removed on
// return.
std::optional<std::string> check_measure_resume_identity(
    const World& world, core::CampaignConfig config,
    const std::string& scratch_path);
std::optional<std::string> check_listbuild_resume_identity(
    const World& world, core::ListBuildConfig config,
    const std::string& scratch_path);
std::optional<std::string> check_vantage_resume_identity(
    const World& world, core::VantageCampaignConfig config,
    const std::string& scratch_path);
std::optional<std::string> check_session_resume_identity(
    const World& world, core::SessionConfig config,
    const std::string& scratch_path);

// Feature-off passthrough: observability on vs off must not change a
// byte of the measurement CSV (the session variant also covers the
// warm-hits CSV).
std::optional<std::string> check_measure_obs_passthrough(
    const World& world, core::CampaignConfig config);
std::optional<std::string> check_session_obs_passthrough(
    const World& world, core::SessionConfig config);

// Two fresh runs of the same config agree byte-wise.
std::optional<std::string> check_measure_run_determinism(
    const World& world, core::CampaignConfig config);

// --- Grammar round-trip oracles ---
// For a spec the grammar accepts: x = parse(spec) must satisfy
// parse(x.str()).str() == x.str() (printing is a fixpoint and re-parses
// to the same value).

std::optional<std::string> check_fault_roundtrip(const std::string& spec);
std::optional<std::string> check_search_fault_roundtrip(
    const std::string& spec);
std::optional<std::string> check_chaos_roundtrip(const std::string& spec);
std::optional<std::string> check_vantage_roundtrip(const std::string& spec);

// --- Compiled filter-list oracle ---
// For the tagged LiteralSet(lists) and every t in `texts`: bit i of
// flags(t) must equal "some pattern p of lists[i] has glob_match(p, t)",
// and flags(t, wanted) must equal flags(t) & wanted for every wanted
// mask over the first four lists. Every pattern must be of the
// `*literal*` shape (the LiteralSet constructor throws otherwise).
std::optional<std::string> check_literal_set_matches_glob(
    const std::vector<std::vector<std::string>>& lists,
    const std::vector<std::string>& texts);

// --- Reference-model state-machine oracles ---
// Drive the real component and a simple map/vector model with one
// generated op sequence; compare observable state after every op.

std::optional<std::string> check_lru_model(Gen& gen);
std::optional<std::string> check_http_cache_model(Gen& gen);
std::optional<std::string> check_breaker_model(Gen& gen);

}  // namespace hispar::testkit
