// Fail-fast CLI flag validation for `hispar measure` and `hispar
// build`, extracted from tools/hispar_cli.cpp so the flag-combination
// matrix is directly unit-testable (tests/test_cli_checks.cpp).
//
// A typo'd or contradictory flag combination silently producing a
// plausible-looking campaign is the worst failure mode a measurement
// tool has, so every rule here throws std::invalid_argument with a
// pointed message before any campaign work starts. The related
// checkpoint-path rules (bare --resume, missing resume file,
// conflicting --checkpoint/--resume) live in
// core::resolve_checkpoint_path (serialization.h), and the shard/site
// bound in core::validate_shard_count (measurement.h) — both are
// invoked from here so one call validates the whole flag set.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "net/vantage_profile.h"

namespace hispar::core {

// The `hispar measure` flags whose combination rules interact.
struct MeasureFlags {
  std::size_t shards = 8;
  std::size_t list_sites = 0;  // sites in the list being measured
  bool has_vantages = false;   // --vantages given
  long vantages = 1;           // its value when given
  std::string vantage_profile;  // --vantage-profile spec ("" = absent)
  std::string consensus_out;    // --consensus-out path ("" = absent)
  bool sessions = false;        // --sessions given
  // --session-len / --session-out / --warm-hits-out given (they need
  // --sessions).
  bool has_session_flags = false;
  long session_len = 5;  // --session-len value (checked in session mode)
};

// What the validated flag set resolved to.
struct MeasurePlan {
  bool vantage_mode = false;
  bool session_mode = false;
  // Parsed/derived vantage profiles; empty unless vantage_mode.
  std::vector<net::VantageProfile> profiles;
};

// Validates the full `measure` flag matrix; throws std::invalid_argument
// on the first violated rule.
MeasurePlan validate_measure_flags(const MeasureFlags& flags);

// The `hispar build` flags whose values are bounded.
struct BuildFlags {
  std::uint64_t weeks = 1;
  std::size_t shards = 8;
  std::size_t target_sites = 0;
  std::size_t urls_per_site = 20;        // --urls
  std::size_t min_internal_results = 5;  // --min-results
};

void validate_build_flags(const BuildFlags& flags);

// A list built with --urls N asks for N - 1 internal URLs per site and
// drops every site with fewer than --min-results, so --urls at or below
// --min-results can only yield an empty list, after scanning the whole
// bootstrap list. Checked wherever `hispar` builds a list from those
// flags; throws std::invalid_argument prefixed with `cmd`.
void validate_url_budget(const char* cmd, std::size_t urls_per_site,
                         std::size_t min_internal_results);

// Opens an artifact file for truncating write, failing fast
// (std::invalid_argument, "<cmd>: cannot write --<flag> file: <path>")
// on an unwritable path — so a campaign never runs for minutes before
// discovering its output cannot be written.
std::unique_ptr<std::ofstream> open_artifact(const char* cmd,
                                             const char* flag,
                                             const std::string& path);

// Flushes and closes an artifact stream once everything is written,
// throwing std::runtime_error with open_artifact's message if any write,
// the flush or the close failed (a full disk, /dev/full, a quota). An
// artifact the run reports as written must really be on disk.
void finish_artifact(const char* cmd, const char* flag,
                     const std::string& path, std::ofstream& out);

}  // namespace hispar::core
