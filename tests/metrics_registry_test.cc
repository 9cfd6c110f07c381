#include "obs/metrics_registry.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "workload/latency_histogram.h"

namespace diknn {
namespace {

// --- Registry basics -------------------------------------------------

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry reg;
  const MetricId id = reg.RegisterCounter("frames.sent");
  ASSERT_NE(id, kInvalidMetricId);
  reg.Add(id);
  reg.Add(id, 41);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("frames.sent"), 42u);
  EXPECT_EQ(snap.CounterValue("absent"), 0u);
}

TEST(MetricsRegistryTest, GaugesKeepDeclaredMode) {
  MetricsRegistry reg;
  reg.PublishGauge("peak", 3.0, GaugeMode::kMax);
  reg.PublishGauge("total", 1.5, GaugeMode::kSum);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.GaugeValue("peak"), 3.0);
  EXPECT_EQ(snap.GaugeValue("total"), 1.5);
}

TEST(MetricsRegistryTest, DuplicateNamesRejectedAcrossKinds) {
  MetricsRegistry reg;
  ASSERT_NE(reg.RegisterCounter("x"), kInvalidMetricId);
  // The name is one namespace: no second counter, gauge, or histogram
  // may alias it.
  EXPECT_EQ(reg.RegisterCounter("x"), kInvalidMetricId);
  EXPECT_EQ(reg.RegisterGauge("x"), kInvalidMetricId);
  EXPECT_EQ(reg.RegisterHistogram("x"), kInvalidMetricId);
  EXPECT_EQ(reg.CounterCount(), 1u);
  EXPECT_EQ(reg.GaugeCount(), 0u);
  EXPECT_EQ(reg.HistogramCount(), 0u);
  // Mutations through an invalid id are ignored, not fatal.
  reg.Add(kInvalidMetricId, 5);
  reg.Set(kInvalidMetricId, 1.0);
  reg.Observe(kInvalidMetricId, 1.0);
}

TEST(MetricsRegistryTest, DuplicateDiagnosticNamesTheCollision) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.last_error(), "");
  ASSERT_NE(reg.RegisterGauge("queue.depth", GaugeMode::kMax),
            kInvalidMetricId);
  EXPECT_EQ(reg.last_error(), "");  // Success leaves no stale error.

  // Kind collision: the message names the metric and both shapes.
  EXPECT_EQ(reg.RegisterCounter("queue.depth"), kInvalidMetricId);
  EXPECT_EQ(reg.last_error(),
            "duplicate metric \"queue.depth\": registered as gauge(max), "
            "re-registered as counter");

  // Same-kind gauge with a different merge mode gets the explicit
  // mismatch suffix — the silent-wrong-aggregation trap this guards.
  EXPECT_EQ(reg.RegisterGauge("queue.depth", GaugeMode::kSum),
            kInvalidMetricId);
  EXPECT_EQ(reg.last_error(),
            "duplicate metric \"queue.depth\": registered as gauge(max), "
            "re-registered as gauge(sum) (gauge merge-mode mismatch)");

  // Identical re-registration is still rejected, without the suffix.
  EXPECT_EQ(reg.RegisterGauge("queue.depth", GaugeMode::kMax),
            kInvalidMetricId);
  EXPECT_EQ(reg.last_error().find("merge-mode mismatch"),
            std::string::npos);

  // The next successful registration clears the error again.
  ASSERT_NE(reg.RegisterHistogram("queue.wait_s"), kInvalidMetricId);
  EXPECT_EQ(reg.last_error(), "");
}

TEST(MetricsRegistryTest, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.PublishCounter("zeta", 1);
  reg.PublishCounter("alpha", 2);
  reg.PublishCounter("mid", 3);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "mid");
  EXPECT_EQ(snap.counters[2].name, "zeta");
}

// --- Histogram -------------------------------------------------------

TEST(MetricsHistogramTest, TracksCountSumMinMax) {
  MetricsHistogram h;
  EXPECT_EQ(h.Percentile(50), 0.0);
  for (double v : {0.5, 1.0, 2.0, 4.0}) h.Add(v);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 7.5);
  EXPECT_EQ(h.Min(), 0.5);
  EXPECT_EQ(h.Max(), 4.0);
  EXPECT_EQ(h.Mean(), 7.5 / 4.0);
  // Percentiles stay within the observed range.
  EXPECT_GE(h.Percentile(0), 0.5);
  EXPECT_LE(h.Percentile(100), 4.0);
  EXPECT_GT(h.Percentile(99), h.Percentile(1));
}

TEST(MetricsHistogramTest, MergeMatchesCombinedStream) {
  MetricsHistogram a, b, all;
  for (int i = 1; i <= 100; ++i) {
    const double v = i * 0.01;
    (i % 2 == 0 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a, all);  // Bucket counts, count, sum, min, max all match.
}

TEST(MetricsHistogramTest, OutliersClampIntoRange) {
  MetricsHistogram h;
  h.Add(0.0);     // Below kMinValue.
  h.Add(1e12);    // Beyond the top octave.
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 1e12);
  EXPECT_GE(h.Percentile(50), 0.0);
  EXPECT_LE(h.Percentile(100), 1e12);
}

// Both log-bucket histograms, pinned bit-for-bit. Their three constants
// (minimum value, buckets per octave, bucket count) decide every bucket
// edge and midpoint; samples at or below the minimum share bucket 0 and
// samples past the span share the last bucket.
TEST(LogHistogramTest, BothInstantiationsKeepTheirBuckets) {
  // [1 ms, ~131 s) at 8 buckets per octave. The first four samples are
  // the state DeltaPercentile subtracts.
  const double latencies[] = {0.0, 5e-4, 0.0123, 0.25, 1.5,
                              3.75, 0.04, 500.0, 1e4,  0.001};
  LatencyHistogram lat;
  LatencyHistogram lat_before;
  for (int i = 0; i < 10; ++i) {
    if (i == 4) lat_before = lat;
    lat.Add(latencies[i]);
  }
  EXPECT_EQ(lat.Count(), 10u);
  EXPECT_EQ(lat.Min(), 0.0);
  EXPECT_EQ(lat.Max(), 1e4);
  EXPECT_EQ(lat.Percentile(0.0), 0x1.11c006f971384p-10);
  EXPECT_EQ(lat.Percentile(25.0), 0x1.11c006f971384p-10);
  EXPECT_EQ(lat.Percentile(50.0), 0x1.458baac1ad521p-5);
  EXPECT_EQ(lat.Percentile(75.0), 0x1.cc64165e8c748p+1);
  EXPECT_EQ(lat.Percentile(90.0), 0x1.f60f562f656e4p+6);
  EXPECT_EQ(lat.Percentile(100.0), 0x1.f60f562f656e4p+6);
  EXPECT_EQ(lat.DeltaPercentile(lat_before, 0.0), 0x1.11c006f971384p-10);
  EXPECT_EQ(lat.DeltaPercentile(lat_before, 50.0), 0x1.83241ffea808ap+0);
  EXPECT_EQ(lat.DeltaPercentile(lat_before, 99.0), 0x1.f60f562f656e4p+6);
  EXPECT_EQ(lat.DeltaPercentile(lat, 50.0), 0.0);

  // [1e-6, ~1.1e6) at 4 buckets per octave.
  const double values[] = {0.0, 3e-7, 1e-3, 0.5, 42.0,
                           1e5, 5e8,  1e12, 7.0, 1e-6};
  MetricsHistogram met;
  for (double v : values) met.Add(v);
  EXPECT_EQ(met.Count(), 10u);
  EXPECT_EQ(met.Min(), 0.0);
  EXPECT_EQ(met.Max(), 1e12);
  EXPECT_EQ(met.Percentile(0.0), 0x1.24bb1eea79d48p-20);
  EXPECT_EQ(met.Percentile(25.0), 0x1.24bb1eea79d48p-20);
  EXPECT_EQ(met.Percentile(50.0), 0x1.ec5013768c2eep-2);
  EXPECT_EQ(met.Percentile(75.0), 0x1.9dfbebc2a24a5p+16);
  EXPECT_EQ(met.Percentile(90.0), 0x1.ec5013768c2eep+19);
  EXPECT_EQ(met.Percentile(100.0), 0x1.ec5013768c2eep+19);
}

// --- Snapshot merge --------------------------------------------------

TEST(MetricsSnapshotTest, MergeIsUnionWithPerKindSemantics) {
  MetricsRegistry a, b;
  a.PublishCounter("shared", 10);
  a.PublishCounter("only_a", 1);
  a.PublishGauge("gmax", 2.0, GaugeMode::kMax);
  a.PublishGauge("gmin", 2.0, GaugeMode::kMin);
  a.PublishGauge("gsum", 2.0, GaugeMode::kSum);
  const MetricId ha = a.RegisterHistogram("h");
  a.Observe(ha, 1.0);

  b.PublishCounter("shared", 32);
  b.PublishCounter("only_b", 5);
  b.PublishGauge("gmax", 3.0, GaugeMode::kMax);
  b.PublishGauge("gmin", 3.0, GaugeMode::kMin);
  b.PublishGauge("gsum", 3.0, GaugeMode::kSum);
  const MetricId hb = b.RegisterHistogram("h");
  b.Observe(hb, 2.0);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.CounterValue("shared"), 42u);
  EXPECT_EQ(merged.CounterValue("only_a"), 1u);
  EXPECT_EQ(merged.CounterValue("only_b"), 5u);
  EXPECT_EQ(merged.GaugeValue("gmax"), 3.0);
  EXPECT_EQ(merged.GaugeValue("gmin"), 2.0);
  EXPECT_EQ(merged.GaugeValue("gsum"), 5.0);
  const MetricsHistogram* h = merged.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Count(), 2u);
  EXPECT_EQ(h->Sum(), 3.0);
  // The merged snapshot stays name-sorted.
  for (size_t i = 1; i < merged.counters.size(); ++i) {
    EXPECT_LT(merged.counters[i - 1].name, merged.counters[i].name);
  }
}

TEST(MetricsSnapshotTest, NeverSetGaugeMergesAsIdentity) {
  MetricsRegistry a, b;
  a.RegisterGauge("g", GaugeMode::kMin);  // Registered, never Set.
  b.PublishGauge("g", 7.0, GaugeMode::kMin);
  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  // kMin against an unset side must not pull in the unset side's 0.
  EXPECT_EQ(merged.GaugeValue("g"), 7.0);
}

TEST(MetricsSnapshotTest, ToJsonIsDeterministic) {
  MetricsRegistry reg;
  reg.PublishCounter("b", 2);
  reg.PublishCounter("a", 1);
  reg.PublishGauge("g", 0.5, GaugeMode::kSum);
  const MetricId h = reg.RegisterHistogram("lat");
  reg.Observe(h, 0.25);
  const std::string json = reg.Snapshot().ToJson();
  EXPECT_EQ(json, reg.Snapshot().ToJson());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Sorted key order inside the counters object.
  EXPECT_LT(json.find("\"a\""), json.find("\"b\""));
}

// --- End-to-end: aggregate is bit-identical at any jobs count --------

TEST(MetricsRegistryTest, AggregateBitIdenticalAcrossJobs) {
  ExperimentConfig config;
  config.network.node_count = 70;
  config.network.field = Rect::Field(68.0, 68.0);
  config.duration = 6.0;
  config.drain = 4.0;
  config.runs = 4;
  std::string error;
  config.workload = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=4;mix@knn=60,window=20,aggregate=20;"
      "k@lo=4,hi=10;deadline@s=1.5;admit@inflight=8,queue=4",
      &error);
  ASSERT_TRUE(config.workload.has_value()) << error;
  config.trace_sample = 1.0;

  std::vector<std::string> jsons;
  for (int jobs : {1, 2, 8}) {
    config.jobs = jobs;
    const ExperimentMetrics agg = AggregateRuns(RunExperimentRuns(config));
    ASSERT_FALSE(agg.obs.counters.empty());
    jsons.push_back(agg.obs.ToJson());
  }
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_EQ(jsons[0], jsons[2]);
  // The run actually recorded traffic and traces, so the equality above
  // compares live data, not empty snapshots.
  const ExperimentMetrics agg = AggregateRuns(RunExperimentRuns(config));
  EXPECT_GT(agg.obs.CounterValue("channel.frames_sent"), 0u);
  EXPECT_GT(agg.obs.CounterValue("tracer.queries_sampled"), 0u);
  const MetricsHistogram* lat = agg.obs.FindHistogram("query.latency_s");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->Count(), 0u);
}

}  // namespace
}  // namespace diknn
