// Tests for the observability subsystem: metrics registry semantics,
// the trace ring, deterministic JSON, and — the load-bearing guarantee —
// byte-identical artifacts for any worker count and across a killed and
// resumed campaign.
#include "core/measurement.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace {

using namespace hispar;
using core::CampaignConfig;
using core::MeasurementCampaign;
using core::SiteObservation;

// --- Histogram semantics -------------------------------------------------

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  obs::Histogram h;
  h.bounds = {1.0, 10.0, 100.0};
  h.counts.assign(4, 0);
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // boundary value lands in its own bucket
  h.observe(1.001);  // first value past the boundary
  h.observe(100.0);
  h.observe(1000.0);  // overflow slot
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.001 + 100.0 + 1000.0);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 1000.0);
}

TEST(Histogram, MergeSumsCountsAndTracksExtrema) {
  obs::MetricsRegistry a, b;
  obs::Histogram& ha = a.histogram("wait", {1.0, 2.0});
  obs::Histogram& hb = b.histogram("wait", {1.0, 2.0});
  ha.observe(0.5);
  ha.observe(5.0);
  hb.observe(1.5);
  ha.merge_from(hb);
  EXPECT_EQ(ha.counts, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(ha.count, 3u);
  EXPECT_DOUBLE_EQ(ha.sum, 7.0);
  EXPECT_DOUBLE_EQ(ha.min, 0.5);
  EXPECT_DOUBLE_EQ(ha.max, 5.0);
}

TEST(Histogram, MergeRejectsMismatchedBounds) {
  obs::Histogram a, b;
  a.bounds = {1.0, 2.0};
  a.counts.assign(3, 0);
  b.bounds = {1.0, 3.0};
  b.counts.assign(3, 0);
  EXPECT_THROW(a.merge_from(b), std::logic_error);
}

TEST(MetricsRegistry, HistogramReRegistrationWithOtherBoundsThrows) {
  obs::MetricsRegistry registry;
  registry.histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(registry.histogram("h", {1.0, 2.0}));
  EXPECT_THROW(registry.histogram("h", {1.0, 4.0}), std::logic_error);
}

TEST(MetricsRegistry, MergeSumsCountersAndPrefixesGauges) {
  obs::MetricsRegistry total, shard0, shard1;
  shard0.counter("dns.queries") = 3;
  shard1.counter("dns.queries") = 4;
  shard0.gauge("clock_end_s") = 10.0;
  shard1.gauge("clock_end_s") = 20.0;
  total.merge_from(shard0, "shard.0.");
  total.merge_from(shard1, "shard.1.");
  EXPECT_EQ(total.counter_or("dns.queries"), 7u);
  EXPECT_DOUBLE_EQ(total.gauge_or("shard.0.clock_end_s"), 10.0);
  EXPECT_DOUBLE_EQ(total.gauge_or("shard.1.clock_end_s"), 20.0);
  EXPECT_EQ(total.gauges().count("clock_end_s"), 0u);
}

TEST(MetricsRegistry, ShardOrderMergeIsReproducible) {
  // The campaign folds shard registries in shard-id order; repeating
  // the same fold must give a byte-identical export.
  std::vector<obs::MetricsRegistry> shards(3);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shards[s].counter("fetches") = 10 + s;
    shards[s].histogram("wait", obs::time_ms_buckets())
        .observe(1.5 * static_cast<double>(s + 1));
  }
  const auto fold = [&shards]() {
    obs::MetricsRegistry total;
    for (std::size_t s = 0; s < shards.size(); ++s)
      total.merge_from(shards[s], "shard." + std::to_string(s) + ".");
    std::ostringstream os;
    total.write_json(os);
    return os.str();
  };
  EXPECT_EQ(fold(), fold());
}

// --- Tracer ring ---------------------------------------------------------

TEST(Tracer, RingKeepsNewestSpansAndCountsDrops) {
  obs::Tracer tracer(/*span_cap=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan span;
    span.name = std::to_string(i);
    tracer.record(std::move(span));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto spans = tracer.ordered_spans();
  ASSERT_EQ(spans.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(spans[i].name, std::to_string(6 + i));
}

TEST(Tracer, ToTraceUsIsExactForWholeMicroseconds) {
  EXPECT_EQ(obs::to_trace_us(0.0), 0);
  EXPECT_EQ(obs::to_trace_us(1.5), 1500000);
  EXPECT_EQ(obs::to_trace_us(0.000001), 1);
}

TEST(Tracer, ChromeTraceExportIsWellFormed) {
  std::vector<obs::TraceSpan> spans(2);
  spans[0].name = "shard 0";
  spans[0].cat = "shard";
  spans[0].tid = 1;
  spans[0].dur_us = 100;
  spans[1].name = "example.com";
  spans[1].cat = "load";
  spans[1].tid = 2;
  spans[1].ts_us = 10;
  spans[1].dur_us = 50;
  spans[1].args.emplace_back("page", "landing");
  std::ostringstream os;
  obs::write_chrome_trace(os, spans);
  const obs::JsonValue doc = obs::parse_json(os.str());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // One thread_name metadata event per distinct tid, then the spans.
  ASSERT_EQ(events->array.size(), 4u);
  EXPECT_EQ(events->array[0].find("ph")->string, "M");
  EXPECT_EQ(events->array[1].find("ph")->string, "M");
  EXPECT_EQ(events->array[2].find("ph")->string, "X");
  EXPECT_EQ(events->array[3].find("name")->string, "example.com");
  EXPECT_DOUBLE_EQ(events->array[3].find("dur")->number, 50.0);
}

// --- Deterministic JSON --------------------------------------------------

TEST(TelemetryFold, FoldsUnitsInOrderBehindOneCampaignSpan) {
  obs::ObsOptions options;
  options.enabled = true;
  options.span_cap = 1;  // the second span of unit 1 drops the first
  std::vector<obs::ShardTelemetry> units(3);
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (u == 2) continue;  // an empty unit is skipped
    obs::UnitRecorder recorder(options);
    recorder.metrics->counter("fetches") = 10 + u;
    recorder.metrics->gauge("clock_end_s") = 2.5 * static_cast<double>(u + 1);
    for (std::size_t i = 0; i <= u; ++i) {
      obs::TraceSpan span;
      span.name = "u" + std::to_string(u) + "." + std::to_string(i);
      recorder.tracer->record(std::move(span));
    }
    units[u] = recorder.take();
  }
  EXPECT_EQ(units[1].spans_dropped, 1u);

  std::vector<obs::TelemetryUnit> folded;
  for (std::size_t u = 0; u < units.size(); ++u)
    folded.push_back({&units[u], "unit." + std::to_string(u) + "."});
  obs::RunTelemetry run;
  obs::fold_unit_telemetry(run, folded, "test campaign");

  EXPECT_EQ(run.metrics.counter_or("fetches"), 21u);
  EXPECT_DOUBLE_EQ(run.metrics.gauge_or("unit.1.clock_end_s"), 5.0);
  EXPECT_EQ(run.metrics.gauges().count("unit.2.clock_end_s"), 0u);
  EXPECT_EQ(run.spans_dropped, 1u);
  EXPECT_EQ(run.metrics.counter_or("trace.spans_dropped"), 1u);
  ASSERT_EQ(run.spans.size(), 3u);
  EXPECT_EQ(run.spans[0].name, "test campaign");
  EXPECT_EQ(run.spans[0].cat, "campaign");
  EXPECT_EQ(run.spans[0].tid, 0u);
  EXPECT_EQ(run.spans[0].dur_us, 5'000'000);  // the latest unit clock
  EXPECT_EQ(run.spans[1].name, "u0.0");
  EXPECT_EQ(run.spans[2].name, "u1.1");

  // A custom end reads something other than the clock gauge.
  obs::RunTelemetry by_spans;
  obs::fold_unit_telemetry(by_spans, folded, "by spans",
                           [](const obs::ShardTelemetry& unit) {
                             return static_cast<std::int64_t>(
                                 unit.spans.size());
                           });
  EXPECT_EQ(by_spans.spans[0].dur_us, 1);
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty = "quote:\" backslash:\\ newline:\n tab:\t";
  const obs::JsonValue parsed =
      obs::parse_json("\"" + obs::json_escape(nasty) + "\"");
  EXPECT_EQ(parsed.string, nasty);
}

TEST(Json, NumbersRoundTripExactly) {
  for (double value : {0.1, 1.0 / 3.0, 12345.6789, 1e-17, -42.0}) {
    const obs::JsonValue parsed = obs::parse_json(obs::json_number(value));
    EXPECT_EQ(parsed.number, value);
  }
}

// --- Reporter ------------------------------------------------------------

TEST(Report, SummaryLineMatchesLegacyFormat) {
  obs::RunReport report;
  report.sites_ok = 3;
  report.sites_degraded = 1;
  report.sites_quarantined = 2;
  report.total_retries = 5;
  report.failed_fetches = 4;
  report.degraded_fetches = 7;
  EXPECT_EQ(obs::summary_line(report),
            "campaign: 3 ok, 1 degraded, 2 quarantined; 5 retries, "
            "4 failed fetches, 7 partial loads");
}

// --- End-to-end campaign guarantees --------------------------------------

class ObsCampaignTest : public ::testing::Test {
 protected:
  ObsCampaignTest()
      : web_({150, 37, 300, false}), toplists_(web_), engine_(web_) {}

  core::HisparList build_list(std::size_t sites) {
    core::HisparBuilder builder(web_, toplists_, engine_);
    core::HisparConfig config;
    config.target_sites = sites;
    config.urls_per_site = 8;
    config.min_internal_results = 4;
    return builder.build(config, 0);
  }

  // Faults on, so the telemetry carries retries, quarantines and
  // injected-fault counters — the hard cases for bit-identity.
  CampaignConfig observed_config() {
    CampaignConfig config;
    config.landing_loads = 2;
    config.shards = 4;
    config.fault_profile = net::FaultProfile::uniform(0.05);
    config.observability.enabled = true;
    return config;
  }

  std::string temp_path(const char* name) {
    return std::string("/tmp/hispar_obs_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + name;
  }

  struct Artifacts {
    std::string metrics;
    std::string trace;
    std::string report;
  };

  static Artifacts render(const MeasurementCampaign& campaign,
                          const std::vector<SiteObservation>& sites) {
    Artifacts artifacts;
    std::ostringstream metrics;
    campaign.telemetry().metrics.write_json(metrics);
    artifacts.metrics = metrics.str();
    std::ostringstream trace;
    obs::write_chrome_trace(trace, campaign.telemetry().spans);
    artifacts.trace = trace.str();
    std::ostringstream report;
    obs::write_report_json(report,
                           core::build_run_report(sites, campaign.telemetry()));
    artifacts.report = report.str();
    return artifacts;
  }

  web::SyntheticWeb web_;
  toplist::TopListFactory toplists_;
  search::SearchEngine engine_;
};

TEST_F(ObsCampaignTest, ArtifactsAreByteIdenticalAcrossJobCounts) {
  const auto list = build_list(10);
  CampaignConfig config = observed_config();

  config.jobs = 1;
  MeasurementCampaign serial(web_, config);
  const auto serial_sites = serial.run(list);
  const Artifacts serial_artifacts = render(serial, serial_sites);

  config.jobs = 8;
  MeasurementCampaign threaded(web_, config);
  const auto threaded_sites = threaded.run(list);
  const Artifacts threaded_artifacts = render(threaded, threaded_sites);

  EXPECT_EQ(serial_artifacts.metrics, threaded_artifacts.metrics);
  EXPECT_EQ(serial_artifacts.trace, threaded_artifacts.trace);
  EXPECT_EQ(serial_artifacts.report, threaded_artifacts.report);
}

TEST_F(ObsCampaignTest, ArtifactsSurviveKillAndResumeByteIdentically) {
  const auto list = build_list(10);
  CampaignConfig config = observed_config();

  MeasurementCampaign reference(web_, config);
  const auto reference_sites = reference.run(list);
  const Artifacts expected = render(reference, reference_sites);

  // Simulate a kill: keep the header, the first complete shard block
  // (telemetry records included) and a torn fragment of the second.
  const std::string full_path = temp_path("full");
  std::remove(full_path.c_str());
  config.checkpoint_path = full_path;
  MeasurementCampaign writer(web_, config);
  writer.run(list);

  std::ifstream full(full_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(full, line);) lines.push_back(line);
  full.close();
  std::size_t first_end = 0;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].rfind("endshard,", 0) == 0) {
      first_end = i;
      break;
    }
  ASSERT_GT(first_end, 0u) << "campaign wrote no complete shard";
  ASSERT_GT(lines.size(), first_end + 2) << "need a second block to tear";

  const std::string torn_path = temp_path("torn");
  {
    std::ofstream torn(torn_path);
    for (std::size_t i = 0; i <= first_end + 1; ++i) torn << lines[i] << '\n';
    torn << lines[first_end + 2].substr(0, lines[first_end + 2].size() / 2);
  }

  config.checkpoint_path = torn_path;
  MeasurementCampaign resumer(web_, config);
  const auto resumed_sites = resumer.run(list);
  const Artifacts resumed = render(resumer, resumed_sites);

  EXPECT_EQ(expected.metrics, resumed.metrics);
  EXPECT_EQ(expected.trace, resumed.trace);
  EXPECT_EQ(expected.report, resumed.report);

  std::remove(full_path.c_str());
  std::remove(torn_path.c_str());
}

TEST_F(ObsCampaignTest, ObservabilityDoesNotPerturbMeasurements) {
  const auto list = build_list(8);
  CampaignConfig config = observed_config();

  config.observability.enabled = false;
  MeasurementCampaign plain(web_, config);
  const auto plain_sites = plain.run(list);
  EXPECT_FALSE(plain.telemetry().enabled);

  config.observability.enabled = true;
  MeasurementCampaign observed(web_, config);
  const auto observed_sites = observed.run(list);
  EXPECT_TRUE(observed.telemetry().enabled);

  ASSERT_EQ(plain_sites.size(), observed_sites.size());
  for (std::size_t i = 0; i < plain_sites.size(); ++i) {
    EXPECT_EQ(plain_sites[i].domain, observed_sites[i].domain);
    EXPECT_EQ(plain_sites[i].quarantined, observed_sites[i].quarantined);
    EXPECT_EQ(plain_sites[i].total_retries, observed_sites[i].total_retries);
    EXPECT_EQ(plain_sites[i].landing.bytes, observed_sites[i].landing.bytes);
    EXPECT_EQ(plain_sites[i].landing.plt_ms, observed_sites[i].landing.plt_ms);
    ASSERT_EQ(plain_sites[i].internals.size(),
              observed_sites[i].internals.size());
    for (std::size_t p = 0; p < plain_sites[i].internals.size(); ++p) {
      EXPECT_EQ(plain_sites[i].internals[p].bytes,
                observed_sites[i].internals[p].bytes);
      EXPECT_EQ(plain_sites[i].internals[p].plt_ms,
                observed_sites[i].internals[p].plt_ms);
    }
  }
}

TEST_F(ObsCampaignTest, WaitSampleCapDropsAreCounted) {
  const auto list = build_list(6);
  CampaignConfig config = observed_config();
  config.wait_sample_cap = 4;  // far below a typical page's object count
  MeasurementCampaign campaign(web_, config);
  const auto sites = campaign.run(list);
  for (const auto& site : sites) {
    // The cap bounds each load attempt; landing medians concatenate the
    // samples of every landing round.
    EXPECT_LE(site.landing.wait_samples_ms.size(),
              4u * config.landing_loads);
    for (const auto& metrics : site.internals)
      EXPECT_LE(metrics.wait_samples_ms.size(), 4u);
  }
  EXPECT_GT(
      campaign.telemetry().metrics.counter_or("loader.wait_samples_dropped"),
      0u);
}

TEST_F(ObsCampaignTest, RunReportIsInternallyConsistent) {
  const auto list = build_list(8);
  const CampaignConfig config = observed_config();
  MeasurementCampaign campaign(web_, config);
  const auto sites = campaign.run(list);
  const obs::RunReport report =
      core::build_run_report(sites, campaign.telemetry());

  EXPECT_TRUE(report.telemetry);
  EXPECT_EQ(report.sites_total, sites.size());
  EXPECT_EQ(report.sites_total,
            report.sites_ok + report.sites_degraded + report.sites_quarantined);
  EXPECT_GT(report.page_fetches, 0u);
  EXPECT_GT(report.dns_queries, 0u);
  EXPECT_GE(report.dns_queries, report.dns_cache_hits);
  EXPECT_GT(report.cdn_requests, 0u);
  EXPECT_EQ(report.cdn_requests,
            report.cdn_edge_hits + report.cdn_parent_hits +
                report.cdn_origin_fetches);
  EXPECT_GE(report.shard_skew_s(), 0.0);
  ASSERT_FALSE(report.shards.empty());
  std::uint64_t shard_sites = 0;
  for (const auto& shard : report.shards) shard_sites += shard.sites;
  EXPECT_EQ(shard_sites, sites.size());
}

}  // namespace
