// Observability wiring types shared by the instrumented subsystems.
//
// A ShardObs is the handle instrumentation sites receive: two nullable
// pointers into the shard's private registry and tracer plus the
// shard's trace thread id. Disabled observability is ShardObs{} — every
// instrumentation site guards with a null check, which is the whole
// cost of the feature when it is off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hispar::obs {

struct ObsOptions {
  bool enabled = false;
  // Per-shard trace ring capacity (spans). The newest spans win; the
  // overwritten count is exported as `trace.spans_dropped`.
  std::size_t span_cap = 8192;
  // Object-fetch spans are the bulk of a trace; campaigns that only
  // need page/site granularity can switch them off.
  bool trace_objects = true;
};

// Nullable view into one shard's telemetry. Copyable, cheap, and safe
// to pass by value down the hot paths.
struct ShardObs {
  MetricsRegistry* metrics = nullptr;
  Tracer* trace = nullptr;
  std::uint32_t tid = 0;  // Chrome trace thread id (shard id + 1)
  bool trace_objects = true;

  bool enabled() const { return metrics != nullptr; }
};

// One shard's finished telemetry: what gets checkpointed with the
// shard's observations and merged at campaign end.
struct ShardTelemetry {
  MetricsRegistry metrics;
  std::vector<TraceSpan> spans;  // oldest -> newest
  std::uint64_t spans_dropped = 0;

  bool empty() const { return metrics.empty() && spans.empty(); }
  bool operator==(const ShardTelemetry&) const = default;
};

// One unit's private registry and tracer while it runs (both null when
// observability is off). Heap-held so the pointers instrumentation
// sites keep stay stable for the unit's lifetime. Every engine's unit
// state (a campaign shard, a browsing session, a list-build shard-week)
// records through one of these.
struct UnitRecorder {
  explicit UnitRecorder(const ObsOptions& options);

  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<Tracer> tracer;

  // Drains the unit's telemetry (moves the registry out).
  ShardTelemetry take();
};

// A campaign's merged telemetry: the unit telemetry folded by
// fold_unit_telemetry behind one campaign-level span.
struct RunTelemetry {
  bool enabled = false;
  MetricsRegistry metrics;
  std::vector<TraceSpan> spans;
  std::uint64_t spans_dropped = 0;
};

// One finished unit of a fold: its telemetry and the prefix its gauges
// take in the campaign registry (e.g. "shard.3.").
struct TelemetryUnit {
  const ShardTelemetry* telemetry = nullptr;
  std::string gauge_prefix;
};

// A unit's end on the campaign's virtual clock, in trace microseconds:
// its "clock_end_s" gauge (0 when absent).
std::int64_t clock_end_us(const ShardTelemetry& unit);

// The one campaign-level fold, shared by every engine. In the given
// order, each non-empty unit's registry merges under its gauge prefix
// (counters and histograms sum), its spans append and its span drops
// add up. Then one span named `campaign` (tid 0, from 0 to the latest
// `unit_end_us`) opens the trace and the drop total lands in the
// "trace.spans_dropped" counter. Deterministic for a fixed unit order.
void fold_unit_telemetry(
    RunTelemetry& run, const std::vector<TelemetryUnit>& units,
    std::string campaign,
    std::int64_t (*unit_end_us)(const ShardTelemetry&) = clock_end_us);

}  // namespace hispar::obs
