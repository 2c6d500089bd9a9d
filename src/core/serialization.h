// Hispar list serialization.
//
// The paper publishes H2K weekly as a downloadable artifact [49]; this
// module reads/writes that artifact. Two formats:
//  * CSV — one row per URL: domain, bootstrap rank, kind, page index,
//    url (the published format);
//  * JSON — nested URL sets, convenient for web tooling.
// Round-tripping is exact (tests/test_serialization.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/hispar.h"
#include "core/list_build.h"
#include "core/measurement.h"
#include "obs/obs.h"

namespace hispar::core {

// --- CSV ---
void write_csv(const HisparList& list, std::ostream& out);
std::string to_csv(const HisparList& list);
// Throws std::runtime_error on malformed input (bad header, bad rank,
// internal URL before its landing page, unparsable URL).
HisparList read_csv(std::istream& in, std::string name = "from-csv");
HisparList from_csv(const std::string& csv, std::string name = "from-csv");

// --- JSON (subset used by the published artifact) ---
std::string to_json(const HisparList& list);

// Convenience file helpers. save_csv throws std::runtime_error when the
// file cannot be opened or any write, the flush or the close fails.
void save_csv(const HisparList& list, const std::string& path);
HisparList load_csv(const std::string& path);

// --- Campaign results CSV ---
//
// One row per measured page: the landing median first, then the
// internals as "internal-<i>". Quarantined sites (no usable landing
// load) are skipped — they carry no data rows, only failure accounting.
// Doubles use default ostream formatting; `hispar measure` has always
// written exactly these bytes (tests/test_golden.cpp pins the format).
void write_measure_csv(std::ostream& out,
                       const std::vector<SiteObservation>& sites);

// --- Checkpoints ---
//
// Four resumable engines share one journal discipline (DESIGN.md §9,
// "Checkpoint journal"; core/journal.h): a `<tag>,v1,<config digest>`
// header, blocks appended atomically and flushed, a torn trailing block
// silently discarded on read, and std::runtime_error on malformed
// complete records. Doubles are written at precision 17 so every value
// round-trips exactly — a resumed run must be bit-identical to an
// uninterrupted one. The formats below differ only in their tag and
// block layout.
inline constexpr const char* kCampaignCheckpointTag = "hispar-checkpoint";
inline constexpr const char* kListBuildCheckpointTag = "hispar-listbuild";
inline constexpr const char* kVantageCheckpointTag = "hispar-vantage";
inline constexpr const char* kSessionCheckpointTag = "hispar-session";

// Writes the `<tag>,v1,<config digest>` header line every format opens
// with.
void write_checkpoint_header(std::ostream& out, const std::string& tag,
                             std::uint64_t config_digest);

// --- Campaign checkpoints ---
//
// Resume file for MeasurementCampaign::run(), at shard granularity.
// Layout:
//   hispar-checkpoint,v1,<config digest>
//   shard,<id>,<n sites>
//     site,<position>,<domain>,<rank>,<category>,<quarantined>,
//          <total retries>,<n internals>,<n outcomes>,<has landing>
//     metrics,...            (landing if present, then the internals)
//     outcome,...            (one per attempted page fetch; a trailing
//          eighth field records breaker denials and is present only
//          when nonzero, so chaos-free files keep the historical bytes)
//   breaker,<key>,<state>,<consecutive failures>,<opened at>,
//          <times opened>,<denials>   (optional: the shard's final
//        circuit-breaker states under a chaos schedule; informational —
//        a shard either completed or re-runs from scratch — but
//        re-emitted verbatim so resumed files stay byte-identical)
//   obscounter/obsgauge/obshist/obsspan/obsdropped,...   (optional:
//        the shard's telemetry, so a resumed campaign's metrics/trace
//        exports stay bit-identical to an uninterrupted run)
//   endshard,<id>
struct CampaignCheckpoint {
  std::uint64_t config_digest = 0;
  std::vector<std::size_t> completed_shards;
  // (position in list.sets, observation) for every site of every
  // completed shard.
  std::vector<std::pair<std::size_t, SiteObservation>> observations;
  // Telemetry of completed shards, present only for shards that ran
  // with observability enabled.
  std::map<std::size_t, obs::ShardTelemetry> telemetry;
  // Final breaker states of completed shards, present only for shards
  // that ran under a chaos schedule and touched at least one scope.
  std::map<std::size_t, std::vector<net::BreakerSet::Record>> breakers;
};

void append_checkpoint_shard(std::ostream& out, std::size_t shard,
                             const std::vector<std::size_t>& positions,
                             const std::vector<SiteObservation>& observations,
                             const obs::ShardTelemetry* telemetry = nullptr,
                             const std::vector<net::BreakerSet::Record>*
                                 breakers = nullptr);
CampaignCheckpoint read_checkpoint(std::istream& in);

// --- List-build checkpoints ---
//
// Resume file for ListBuildCampaign::run(), at week granularity (weeks
// are the unit of completion — a week has a global wave barrier, so
// partial weeks are never worth checkpointing). Layout:
//   hispar-listbuild,v1,<config digest>
//   week,<week>,<n sets>
//     set,<domain>,<bootstrap rank>,<n urls>
//       url,<page index>,<url>
//     weekstats,<examined>,...,<retries>,<quarantined-by kind...>
//     shardtel,<id>
//       obscounter/obsgauge/obshist/obsspan/obsdropped,...
//     endshardtel,<id>        (one block per shard, ascending)
//   endweek,<week>
// The list name is not serialized; the resuming campaign restores it
// from its own config.
struct ListBuildCheckpoint {
  std::uint64_t config_digest = 0;
  std::vector<ListBuildWeekRecord> weeks;  // file order
};

void append_listbuild_week(std::ostream& out,
                           const ListBuildWeekRecord& record);
ListBuildCheckpoint read_listbuild_checkpoint(std::istream& in);

// --- Multi-vantage checkpoints ---
//
// Resume file for core::VantageCampaign::run(), at two granularities.
// The durable unit during a run is one (vantage, shard) cell of the 2-D
// scheduler — a cell either completed (its shard observations and
// telemetry are on disk and splice back in) or re-runs from scratch, so
// a resumed multi-vantage run is bit-identical to an uninterrupted one
// at any --jobs. Once every cell of every vantage has landed, the
// campaign compacts the file to whole-vantage blocks — the historical v1
// layout, byte-identical to what the sequential engine wrote
// (tests/test_golden.cpp pins it). Layout:
//   hispar-vantage,v1,<config digest>
//   vantage,<id>,<n sites>          (a completed vantage)
//     site,<position>,...     (exactly the shard-block site records:
//     metrics,... outcome,...  one per site, in list order)
//   obscounter/obsgauge/obshist/obsspan/obsdropped,...   (optional:
//        the vantage's merged telemetry)
//   endvantage,<id>
//   vshard,<vantage>,<shard>,<n sites>   (one completed scheduler cell;
//     site,...                 only that shard's positions, in shard
//     metrics,... outcome,...  order)
//   obscounter/...,...        (optional: the cell's raw per-shard
//        telemetry, pre-merge)
//   endvshard,<vantage>,<shard>
// The digest covers every derived per-vantage campaign config and the
// list — never jobs or observability — so files written by the
// sequential engine resume under the 2-D scheduler and vice versa.
struct VantageCheckpointBlock {
  std::size_t vantage = 0;
  // (position in list.sets, observation); blocks written by
  // append_vantage_block cover every position.
  std::vector<std::pair<std::size_t, SiteObservation>> observations;
  bool has_telemetry = false;
  obs::ShardTelemetry telemetry;
};

// One durable (vantage, shard) scheduler cell. Its telemetry is the
// shard's *raw* telemetry — the vantage-level merge happens once all of
// a vantage's cells are in, via obs::fold_unit_telemetry over
// core::shard_units.
struct VantageShardBlock {
  std::size_t vantage = 0;
  std::size_t shard = 0;
  std::vector<std::pair<std::size_t, SiteObservation>> observations;
  bool has_telemetry = false;
  obs::ShardTelemetry telemetry;
};

struct VantageCheckpoint {
  std::uint64_t config_digest = 0;
  std::vector<VantageCheckpointBlock> vantages;  // file order
  std::vector<VantageShardBlock> shards;         // file order
};

void append_vantage_block(std::ostream& out, std::size_t vantage,
                          const std::vector<SiteObservation>& observations,
                          const obs::ShardTelemetry* telemetry = nullptr);
void append_vantage_shard_block(std::ostream& out, std::size_t vantage,
                                std::size_t shard,
                                const std::vector<std::size_t>& positions,
                                const std::vector<SiteObservation>&
                                    observations,
                                const obs::ShardTelemetry* telemetry = nullptr);
VantageCheckpoint read_vantage_checkpoint(std::istream& in);

// --- Browsing-session checkpoints ---
//
// Resume file for core::SessionCampaign::run(), at session granularity:
// one session is one site's landing -> internal replay over private
// browser-cache/DNS/connection state, so it is also the unit of
// isolated state and of resume — a session either completed (its
// observation, cache counters and telemetry are on disk and splice back
// in) or re-runs from scratch. Layout:
//   hispar-session,v1,<config digest>
//   session,<position>
//     site,<position>,...      (exactly the shard-block site record)
//     cachestats,<lookups>,<fresh hits>,<revalidations>,<misses>,
//                <insertions>,<evictions>
//     obscounter/obsgauge/obshist/obsspan/obsdropped,...   (optional:
//          the session's telemetry)
//   endsession,<position>
struct SessionCheckpointBlock {
  std::size_t position = 0;  // index into list.sets
  SiteObservation observation;
  browser::CacheStats cache;
  bool has_telemetry = false;
  obs::ShardTelemetry telemetry;
};

struct SessionCheckpoint {
  std::uint64_t config_digest = 0;
  std::vector<SessionCheckpointBlock> sessions;  // file order
};

void append_session_block(std::ostream& out, std::size_t position,
                          const SiteObservation& observation,
                          const browser::CacheStats& cache,
                          const obs::ShardTelemetry* telemetry = nullptr);
SessionCheckpoint read_session_checkpoint(std::istream& in);

// --- CLI checkpoint-path resolution ---
//
// Shared by `hispar measure`/`build` and the regression tests:
// --checkpoint FILE names the resume file (created if absent);
// --resume FILE additionally requires it to exist already. A bare
// `--resume` with no value, a missing resume file, and a conflicting
// --checkpoint/--resume pair all fail fast with std::invalid_argument,
// prefixed by `context`. Returns the resolved path ("" = no
// checkpointing).
std::string resolve_checkpoint_path(const std::string& context,
                                    const std::string& checkpoint,
                                    bool has_resume,
                                    const std::string& resume);

}  // namespace hispar::core
