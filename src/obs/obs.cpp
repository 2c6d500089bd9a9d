#include "obs/obs.h"

#include <algorithm>
#include <utility>

namespace hispar::obs {

UnitRecorder::UnitRecorder(const ObsOptions& options)
    : metrics(options.enabled ? std::make_unique<MetricsRegistry>() : nullptr),
      tracer(options.enabled ? std::make_unique<Tracer>(options.span_cap)
                             : nullptr) {}

ShardTelemetry UnitRecorder::take() {
  ShardTelemetry telemetry;
  if (metrics != nullptr) telemetry.metrics = std::move(*metrics);
  if (tracer != nullptr) {
    telemetry.spans = tracer->ordered_spans();
    telemetry.spans_dropped = tracer->dropped();
  }
  return telemetry;
}

std::int64_t clock_end_us(const ShardTelemetry& unit) {
  return to_trace_us(unit.metrics.gauge_or("clock_end_s"));
}

void fold_unit_telemetry(RunTelemetry& run,
                         const std::vector<TelemetryUnit>& units,
                         std::string campaign,
                         std::int64_t (*unit_end_us)(const ShardTelemetry&)) {
  std::int64_t end_us = 0;
  for (const TelemetryUnit& unit : units) {
    const ShardTelemetry& telemetry = *unit.telemetry;
    if (telemetry.empty()) continue;
    run.metrics.merge_from(telemetry.metrics, unit.gauge_prefix);
    run.spans.insert(run.spans.end(), telemetry.spans.begin(),
                     telemetry.spans.end());
    run.spans_dropped += telemetry.spans_dropped;
    end_us = std::max(end_us, unit_end_us(telemetry));
  }
  TraceSpan campaign_span;
  campaign_span.name = std::move(campaign);
  campaign_span.cat = "campaign";
  campaign_span.ts_us = 0;
  campaign_span.dur_us = end_us;
  campaign_span.tid = 0;
  run.spans.insert(run.spans.begin(), std::move(campaign_span));
  run.metrics.counter("trace.spans_dropped") = run.spans_dropped;
}

}  // namespace hispar::obs
