#include "core/vantage.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/analyses.h"
#include "core/journal.h"
#include "core/parallel.h"
#include "core/serialization.h"
#include "util/rng.h"

namespace hispar::core {

std::uint32_t vantage_tid_stride(std::size_t shards) {
  // 1000 is the historical stride; every campaign under a thousand
  // shards keeps its existing trace bytes. Beyond that the band must
  // widen: vantage v's rows span [v * stride, v * stride + shards]
  // (tid 0 is the campaign span, shard tids are shard id + 1), so the
  // stride has to exceed the shard count or bands collide.
  constexpr std::uint32_t kHistoricalStride = 1000;
  if (shards < kHistoricalStride) return kHistoricalStride;
  return static_cast<std::uint32_t>(shards) + 1;
}

net::FaultProfile scale_fault_profile(const net::FaultProfile& profile,
                                      double scale) {
  const auto scaled = [scale](double rate) {
    return std::clamp(rate * scale, 0.0, 1.0);
  };
  net::FaultProfile out = profile;
  out.dns_servfail = scaled(profile.dns_servfail);
  out.dns_timeout = scaled(profile.dns_timeout);
  out.connection_reset = scaled(profile.connection_reset);
  out.tls_failure = scaled(profile.tls_failure);
  out.http_5xx = scaled(profile.http_5xx);
  out.stall = scaled(profile.stall);
  out.truncation = scaled(profile.truncation);
  // Per-rate clamping alone can leave the *total* above 1 — the
  // invariant FaultProfile::parse rejects, because one fetch draws at
  // most one fault. Renormalize so relative rates survive and the
  // total lands just under 1 (the slack keeps the floating-point sum
  // of the divided rates from creeping back over the bound).
  const double total = out.total_rate();
  if (total > 1.0) {
    const double denom = total * (1.0 + 1e-12);
    out.dns_servfail /= denom;
    out.dns_timeout /= denom;
    out.connection_reset /= denom;
    out.tls_failure /= denom;
    out.http_5xx /= denom;
    out.stall /= denom;
    out.truncation /= denom;
  }
  return out;
}

VantageCampaign::VantageCampaign(const web::SyntheticWeb& web,
                                 VantageCampaignConfig config)
    : web_(&web), config_(std::move(config)) {
  if (config_.profiles.empty())
    throw std::invalid_argument("vantage campaign: no vantage profiles");
}

CampaignConfig VantageCampaign::vantage_config(std::size_t vantage) const {
  if (vantage >= config_.profiles.size())
    throw std::invalid_argument("vantage campaign: vantage index out of range");
  const net::VantageProfile& profile = config_.profiles[vantage];

  CampaignConfig config = config_.base;
  // Checkpointing is vantage-granular; the inner campaigns never write
  // their own resume files.
  config.checkpoint_path.clear();
  config.vantage = profile.region;
  config.latency = profile.latency;
  config.resolver = profile.resolver;
  config.use_doh = profile.use_doh;
  config.doh = profile.doh;
  config.cdn_edge_pin = profile.edge_pin;
  config.fault_profile =
      scale_fault_profile(config_.base.fault_profile, profile.fault_scale);
  // Each vantage beyond the home one draws from its own seed universe:
  // a given site must not see correlated faults or load noise across
  // vantages. Vantage 0 keeps the base seed, which (with an all-default
  // profile) makes a 1-vantage campaign byte-identical to the
  // historical single-vantage one.
  if (vantage > 0)
    config.seed = util::Rng(config_.base.seed).fork("vantage")
                      .fork(static_cast<std::uint64_t>(vantage)).next();
  return config;
}

std::uint64_t VantageCampaign::checkpoint_digest(const HisparList& list) const {
  std::ostringstream os;
  os << "vantage-v1|" << config_.profiles.size();
  for (std::size_t v = 0; v < config_.profiles.size(); ++v)
    os << "|v" << v << ':' << campaign_config_digest(vantage_config(v), list);
  return util::fnv1a(os.str());
}

VantageRunResult VantageCampaign::run(const HisparList& list) {
  const std::size_t n = config_.profiles.size();
  const std::size_t shard_count =
      std::max<std::size_t>(1, config_.base.shards);
  VantageRunResult result;
  result.observations.assign(
      n, std::vector<SiteObservation>(list.sets.size()));
  vantage_telemetry_.assign(n, obs::ShardTelemetry{});
  telemetry_ = obs::RunTelemetry{};
  telemetry_.enabled = config_.base.observability.enabled;

  // The durable unit of the 2-D scheduler is one (vantage, shard) cell:
  // shard state is fully vantage-isolated, so a cell either completed
  // (its observations and raw telemetry are on disk and splice back in)
  // or re-runs from scratch, and a resumed run is bit-identical to an
  // uninterrupted one at any --jobs. A whole-vantage block (the layout
  // the sequential engine wrote, and what the finished file compacts
  // to) marks every cell of that vantage done.
  std::vector<char> vantage_done(n, 0);
  std::vector<std::vector<char>> cell_done(
      n, std::vector<char>(shard_count, 0));
  std::vector<std::vector<obs::ShardTelemetry>> cell_telemetry(
      n, std::vector<obs::ShardTelemetry>(shard_count));
  const auto shards = shard_indices(list, shard_count);

  const auto write_vantage = [&](std::ostream& out, std::size_t v) {
    append_vantage_block(out, v, result.observations[v],
                         if_present(vantage_telemetry_[v]));
  };
  const auto write_cell = [&](std::ostream& out, std::size_t v,
                              std::size_t s) {
    append_vantage_shard_block(out, v, s, shards[s], result.observations[v],
                               if_present(cell_telemetry[v][s]));
  };
  const auto splice = [&](std::size_t v, auto& observations) {
    for (auto& [position, observation] : observations)
      if (position < list.sets.size())
        result.observations[v][position] = std::move(observation);
  };
  CheckpointJournal journal("vantage campaign", kVantageCheckpointTag,
                            config_.checkpoint_path);
  if (auto checkpoint = journal.open(
          read_vantage_checkpoint, [&] { return checkpoint_digest(list); },
          "campaign (seed/profiles/list changed)")) {
    for (auto& block : checkpoint->vantages) {
      if (block.vantage >= n) continue;
      splice(block.vantage, block.observations);
      if (block.has_telemetry)
        vantage_telemetry_[block.vantage] = std::move(block.telemetry);
      vantage_done[block.vantage] = 1;
    }
    for (auto& block : checkpoint->shards) {
      if (block.vantage >= n || block.shard >= shard_count) continue;
      if (vantage_done[block.vantage]) continue;
      splice(block.vantage, block.observations);
      if (block.has_telemetry)
        cell_telemetry[block.vantage][block.shard] =
            std::move(block.telemetry);
      cell_done[block.vantage][block.shard] = 1;
    }
  }
  journal.rewrite([&](std::ostream& out) {
    for (std::size_t v = 0; v < n; ++v)
      if (vantage_done[v]) write_vantage(out, v);
    for (std::size_t v = 0; v < n; ++v)
      for (std::size_t s = 0; s < shard_count; ++s)
        if (!vantage_done[v] && cell_done[v][s]) write_cell(out, v, s);
  });

  // Build one inner campaign per pending vantage (cheap, deterministic,
  // main thread) and enumerate the pending cells in (vantage, shard)
  // order. Workers pull cells: a cell touches only vantage-local shard
  // state and writes observation/telemetry slots disjoint from every
  // other cell, so the merged artifacts are --jobs independent by
  // construction — the merge below reads the slots in (vantage, shard)
  // order exactly as the sequential engine did.
  std::vector<std::unique_ptr<MeasurementCampaign>> campaigns(n);
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (std::size_t v = 0; v < n; ++v) {
    if (vantage_done[v]) continue;
    campaigns[v] =
        std::make_unique<MeasurementCampaign>(*web_, vantage_config(v));
    for (std::size_t s = 0; s < shard_count; ++s)
      if (!cell_done[v][s]) cells.emplace_back(v, s);
  }

  for_each_unit(cells.size(), config_.base.jobs, [&](std::size_t unit) {
    const auto [v, s] = cells[unit];
    MeasurementCampaign::ShardRun cell =
        campaigns[v]->run_one_shard(s, list, shards[s],
                                    result.observations[v]);
    cell_telemetry[v][s] = std::move(cell.telemetry);
    journal.append([&](std::ostream& out) { write_cell(out, v, s); });
  });

  // Fold each pending vantage's cells into its vantage-level telemetry,
  // through the same fold the inner campaign's own run() uses — the
  // merged bytes must match the sequential engine's exactly.
  if (config_.base.observability.enabled) {
    for (std::size_t v = 0; v < n; ++v) {
      if (vantage_done[v]) continue;
      obs::RunTelemetry merged;
      obs::fold_unit_telemetry(merged, shard_units(cell_telemetry[v]),
                               "campaign");
      vantage_telemetry_[v].metrics = std::move(merged.metrics);
      vantage_telemetry_[v].spans = std::move(merged.spans);
      vantage_telemetry_[v].spans_dropped = merged.spans_dropped;
    }
  }

  // Every cell has landed: compact the file to whole-vantage blocks —
  // the historical layout, byte-identical to the sequential engine's
  // final file at any --jobs and any interrupt history.
  journal.compact([&](std::ostream& out) {
    for (std::size_t v = 0; v < n; ++v) write_vantage(out, v);
  });

  if (config_.base.observability.enabled) {
    if (n == 1) {
      // One vantage exports the inner campaign's telemetry untouched —
      // the byte-identity contract with the single-vantage engine.
      telemetry_.metrics = vantage_telemetry_[0].metrics;
      telemetry_.spans = vantage_telemetry_[0].spans;
      telemetry_.spans_dropped = vantage_telemetry_[0].spans_dropped;
    } else {
      // Merge in vantage-id order: counters/histograms sum (each
      // vantage's merged registry already carries a trace.spans_dropped
      // counter, so the sum stays consistent), gauges become
      // "vantage.<v>.<name>", spans keep their per-vantage order with
      // thread ids shifted into vantage v's tid band.
      const std::uint32_t stride = vantage_tid_stride(shard_count);
      for (std::size_t v = 0; v < n; ++v) {
        const obs::ShardTelemetry& telemetry = vantage_telemetry_[v];
        if (telemetry.empty()) continue;
        telemetry_.metrics.merge_from(
            telemetry.metrics, "vantage." + std::to_string(v) + ".");
        for (obs::TraceSpan span : telemetry.spans) {
          span.tid += static_cast<std::uint32_t>(v) * stride;
          telemetry_.spans.push_back(std::move(span));
        }
        telemetry_.spans_dropped += telemetry.spans_dropped;
      }
    }
  }
  return result;
}

obs::VantageReport build_vantage_report(
    const std::vector<std::vector<SiteObservation>>& per_vantage,
    const std::vector<net::VantageProfile>& profiles,
    const obs::RunTelemetry& telemetry) {
  if (per_vantage.size() != profiles.size())
    throw std::invalid_argument(
        "build_vantage_report: one observation list per profile required");
  const VantageDisagreement disagreement = vantage_disagreement(per_vantage);

  obs::VantageReport report;
  report.vantages = disagreement.vantages;
  report.sites_total = disagreement.sites_total;
  report.sites_compared = disagreement.sites_compared;

  for (std::size_t v = 0; v < profiles.size(); ++v) {
    const CampaignSummary summary = summarize_campaign(per_vantage[v]);
    obs::VantageReport::VantageLine line;
    line.vantage = v;
    line.name = profiles[v].name;
    line.region = std::string(net::to_string(profiles[v].region));
    line.sites_ok = summary.sites_ok;
    line.sites_degraded = summary.sites_degraded;
    line.sites_quarantined = summary.sites_quarantined;
    line.failed_fetches = summary.failed_fetches;
    report.vantage_lines.push_back(std::move(line));
  }

  for (const auto& metric : disagreement.metrics) {
    obs::VantageReport::MetricLine line;
    line.metric = metric.metric;
    line.has_spread = disagreement.sites_compared > 0;
    line.median_spread = line.has_spread ? metric.median_spread : 0.0;
    line.max_spread = line.has_spread ? metric.max_spread : 0.0;
    // Guarded like the spreads: with no compared sites there are no
    // per-site deltas, so any nonzero (or non-finite) fraction computed
    // upstream must not leak into the deterministic JSON writer.
    line.sign_flip_fraction = line.has_spread ? metric.sign_flip_fraction : 0.0;
    report.metric_lines.push_back(std::move(line));
  }

  report.telemetry = telemetry.enabled;
  if (telemetry.enabled) {
    report.trace_spans = telemetry.spans.size();
    report.trace_spans_dropped = telemetry.spans_dropped;
  }
  return report;
}

}  // namespace hispar::core
