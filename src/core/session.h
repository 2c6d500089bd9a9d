// Deterministic browsing-session replay (warm-vs-cold contrast).
//
// The paper measures every page with a cold browser profile (§3.1) but
// frames the landing/internal cacheability gap around users who reach
// internal pages *through* the landing page with a warm cache (§5.1).
// This campaign replays exactly that journey: per site, one session
// loads the landing page and then `session_len` of its internal pages
// through one PageLoader while threading a private browser::SessionState
// (standards-style HTTP cache, warm DNS answers, per-origin keep-alive)
// across the pages. Contrasting its observations with a cold campaign
// over the same list quantifies how much of the landing-vs-internal gap
// a warm within-session cache erases.
//
// Determinism contract (same as MeasurementCampaign): every random
// stream is keyed by (seed, domain, page, ordinal, attempt) — never by
// shard id or thread schedule — so session artifacts are bit-identical
// for any --jobs value, any --shards value, and across kill + resume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "browser/http_cache.h"
#include "core/measurement.h"

namespace hispar::core {

struct SessionConfig {
  // Substrate knobs, seed, fault profile, retries, observability — the
  // session campaign inherits the measurement campaign's configuration
  // wholesale so cold and warm runs share one substrate definition.
  CampaignConfig base;
  // Internal pages visited per session (after the landing page). Sites
  // with fewer internal URLs visit all of them.
  std::size_t session_len = 5;
  // Browser cache capacity (bytes) — roughly a mobile browser's disk
  // cache; large enough that a single session rarely evicts.
  std::size_t cache_bytes = 50'000'000;
  // false replays the same visit order with a cold profile per page
  // (no SessionState at all) — the paper's protocol, used as the
  // control arm of the cold-vs-warm contrast.
  bool warm = true;
  // When non-empty, run() appends each completed session to this file
  // and, if the file already exists, resumes from it. A session owns
  // fully isolated state, so it is the unit of resume and a resumed
  // campaign's output is bit-identical to an uninterrupted one.
  std::string checkpoint_path;
};

class SessionCampaign {
 public:
  SessionCampaign(const web::SyntheticWeb& web, SessionConfig config = {});

  // Replay one browsing session per site of the list. Sessions are
  // fully isolated (own substrate, own clock from 0, own RNG forked
  // from the seed by domain), so shards only distribute work across
  // up to `base.jobs` threads and the output is identical for any
  // `jobs` *and* any `shards` value.
  std::vector<SiteObservation> run(const HisparList& list);

  // Per-site browser-cache counters of the last run(), parallel to the
  // returned observations (all zero when `warm` is false).
  const std::vector<browser::CacheStats>& cache_stats() const {
    return cache_stats_;
  }

  // Merged telemetry of the last run() (empty/disabled unless
  // base.observability.enabled). Per-session registries and span lists
  // are folded in list-position order, so the merge is deterministic.
  const obs::RunTelemetry& telemetry() const { return telemetry_; }

  // Fingerprint of everything that determines run() output for a given
  // list. Extends campaign_config_digest with the session knobs; guards
  // checkpoint resume against a mismatched campaign.
  std::uint64_t checkpoint_digest(const HisparList& list) const;

  // The deterministic visit order of one site's session: the landing
  // page first, then min(session_len, available) internal page indices
  // in Fisher-Yates order under Rng(seed).fork("session").fork(domain)
  // .fork("order") — a pure function of (seed, domain, list), never of
  // jobs/shards. Exposed for tests.
  static std::vector<std::size_t> session_pages(std::uint64_t seed,
                                                const UrlSet& set,
                                                std::size_t session_len);

 private:
  struct SessionResult {
    SiteObservation observation;
    browser::CacheStats cache;
    obs::ShardTelemetry telemetry;
  };

  SessionResult run_session(const HisparList& list, std::size_t position);

  const web::SyntheticWeb* web_;
  SessionConfig config_;
  FetchContext context_;  // built from config_.base
  std::vector<browser::CacheStats> cache_stats_;
  obs::RunTelemetry telemetry_;
};

// Assembles the structured session report: coverage of the warm run,
// summed browser-cache counters, and the cold-vs-warm contrast over
// the consensus metrics (core::cold_warm_delta fills the metric
// lines). Lives here rather than in obs/ because it reads
// SiteObservation. `cold` is the control campaign's observations over
// the same list; `stats` is parallel to `warm`.
obs::SessionReport build_session_report(
    const std::vector<SiteObservation>& cold,
    const std::vector<SiteObservation>& warm,
    const std::vector<browser::CacheStats>& stats,
    const obs::RunTelemetry& telemetry, std::size_t session_len);

}  // namespace hispar::core
