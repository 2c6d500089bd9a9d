// Seeded, size-parameterized generators for property-based testing.
//
// The determinism contracts this repo ships (jobs-invariance, kill +
// resume identity, feature-off passthrough) are exercised elsewhere at
// hand-picked config points; this testkit samples the *interior* of the
// config space — the paper's own lesson applied to the test suite
// (sampling only the landing page of a space hides systematic
// divergence, PAPER.md §1). Every generator is a pure function of a
// Gen, which wraps the repo's fixed util::Rng: the same (seed, size)
// pair reproduces the same value on any machine, which is what makes a
// CI failure replayable from one printed line.
//
// `size` is the usual property-testing growth knob: small sizes produce
// small configs/inputs (cheap, and the natural shrink direction), large
// sizes reach deeper into the space. Generators scale their choices off
// it; the property runner (property.h) ramps it across iterations and
// walks it back down to shrink a failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/list_build.h"
#include "core/measurement.h"
#include "core/session.h"
#include "util/rng.h"

namespace hispar::testkit {

class Gen {
 public:
  explicit Gen(std::uint64_t seed, int size = 50)
      : seed_(seed), size_(size < 1 ? 1 : size), rng_(seed) {}

  std::uint64_t seed() const { return seed_; }
  int size() const { return size_; }
  util::Rng& rng() { return rng_; }

  std::uint64_t u64() { return rng_.next(); }
  // Uniform in [0, n); n = 0 returns 0.
  std::size_t index(std::size_t n) {
    return n == 0 ? 0
                  : static_cast<std::size_t>(rng_.uniform_int(
                        0, static_cast<std::int64_t>(n) - 1));
  }
  std::int64_t int_in(std::int64_t lo, std::int64_t hi) {
    return rng_.uniform_int(lo, hi);
  }
  double in_range(double lo, double hi) { return rng_.uniform(lo, hi); }
  bool chance(double p) { return rng_.chance(p); }

  template <typename T, std::size_t N>
  const T& pick(const T (&options)[N]) {
    return options[index(N)];
  }

 private:
  std::uint64_t seed_;
  int size_;
  util::Rng rng_;
};

// --- Spec-grammar generators ---
// Each returns a spec the corresponding parser accepts; the grammar
// round-trip oracle (oracles.h) then checks parse/str is a fixpoint.

// FaultProfile grammar: "none" | "uniform:R" | "key=R,..." (sum <= 1).
std::string gen_fault_spec(Gen& gen);
// SearchFaultProfile grammar (same shape, search key table).
std::string gen_search_fault_spec(Gen& gen);
// OutageSchedule grammar: "none" | rule(;rule)* with per-scope keys and
// exactly one window shape per rule.
std::string gen_chaos_spec(Gen& gen);
// One VantageProfile: name[:key=value...].
std::string gen_vantage_spec(Gen& gen);
// Semicolon-joined list of 1..3 vantage profiles.
std::string gen_vantage_list_spec(Gen& gen);

// --- Filter-list generators (util::LiteralSet vs util::glob_match) ---

// 1..(2 + size/5) `*L*` patterns over a small alphabet, so literals
// collide often: one-byte literals, literals that share a prefix or
// overlap (ab / abc / bc), and the bytes NUL, 0x80 and 0xff.
std::vector<std::string> gen_literal_patterns(Gen& gen);
// A URL-like text over the same alphabet. Often one literal of
// `patterns` (or a one-byte-off near miss) is planted at offset 0, at
// the very end, or in the middle.
std::string gen_filter_text(Gen& gen,
                            const std::vector<std::string>& patterns);

// --- Engine-config generators ---
// jobs / checkpoint_path / observability are left at their defaults:
// those are exactly the axes the invariant oracles own.

core::CampaignConfig gen_campaign_config(Gen& gen);
core::ListBuildConfig gen_listbuild_config(Gen& gen);
core::SessionConfig gen_session_config(Gen& gen);

// --- Byte-level mutation (fuzzing front end) ---

// `n` bytes, full 0..255 range (NUL included on purpose).
std::string gen_bytes(Gen& gen, std::size_t n);
// A mutated copy of `input`: 1..(4 + size/8) stacked mutations drawn
// from {bit flip, byte set, insert, delete range, duplicate range,
// truncate, digit-run replace, NUL injection, line splice}. Never
// returns `input` unchanged unless every draw degenerates (empty
// input mutates into fresh random bytes).
std::string mutate(Gen& gen, std::string_view input);

}  // namespace hispar::testkit
