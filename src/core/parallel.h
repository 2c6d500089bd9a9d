// Sharded parallel execution of measurement campaigns.
//
// A campaign over a Hispar list is embarrassingly parallel across sites
// *if* the simulation state that loads share (DNS resolver cache, CDN
// edge LRUs, the virtual clock) is partitioned deterministically. We
// partition by *shard*: a stable hash of the site's domain assigns it to
// one of a fixed number of shards, each shard owns a fully isolated
// simulation state (one "vantage point", mirroring how real
// multi-probe platforms fan out whole crawls), and worker threads pick
// up shards. Because shard membership depends only on the domain and the
// shard count — never on the number of workers — the merged result is
// bit-identical for any `jobs` value. The retry backoff every engine's
// unit clock advances by lives here too.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

#include "core/hispar.h"

namespace hispar::core {

// Stable shard assignment: fnv1a(domain) % shard_count. Independent of
// worker count, list order and platform, so results are reproducible.
std::size_t shard_of(std::string_view domain, std::size_t shard_count);

// Partition the positions [0, list.sets.size()) of a Hispar list into
// `shard_count` index lists by domain hash. Relative list order is
// preserved within each shard (the per-shard fetch protocol iterates
// sites in list order, like the serial campaign does globally).
std::vector<std::vector<std::size_t>> shard_indices(const HisparList& list,
                                                    std::size_t shard_count);

// Run `fn(unit)` for every unit in [0, unit_count) on up to `jobs`
// threads (jobs == 0 means one per hardware thread; jobs is capped at
// unit_count). A "unit" is any independently runnable slice of work —
// one shard of a single campaign, or one (vantage, shard) cell of a
// multi-vantage campaign. fn must only touch unit-local state or write
// to disjoint output slots. Exceptions thrown by fn are collected and
// the one from the lowest unit id is rethrown after all workers join,
// so error reporting is deterministic too.
void for_each_unit(std::size_t unit_count, std::size_t jobs,
                   const std::function<void(std::size_t)>& fn);

// Retry backoff gaps (page fetches and search queries) double per
// attempt but never exceed this multiple of the base gap.
constexpr double kMaxRetryBackoffScale = 32.0;

// The virtual-clock gap after failed attempt `attempt` (0-based):
// base_s * 2^attempt, capped at kMaxRetryBackoffScale * base_s. The
// exponent is clamped before exp2, so no attempt count overflows.
double retry_backoff_s(double base_s, int attempt);

}  // namespace hispar::core
