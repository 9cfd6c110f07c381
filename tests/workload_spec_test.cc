// Workload-spec grammar and SLO accounting primitives: parse defaults,
// full round-trips through ToSpec(), malformed-input rejection, and the
// streaming latency histogram / SloReport invariants the QueryDriver
// builds its reports from.

#include "workload/workload_spec.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "workload/latency_histogram.h"

namespace diknn {
namespace {

TEST(WorkloadSpecTest, EmptySpecYieldsDefaults) {
  const auto spec = WorkloadSpec::Parse("");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->arrival, ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(spec->rate, 1.0);
  EXPECT_DOUBLE_EQ(spec->mix[static_cast<int>(QueryClass::kKnn)], 1.0);
  EXPECT_DOUBLE_EQ(spec->mix[static_cast<int>(QueryClass::kWindow)], 0.0);
  EXPECT_EQ(spec->k_lo, 40);
  EXPECT_EQ(spec->k_hi, 40);
  EXPECT_EQ(spec->spatial, SpatialKind::kUniform);
  EXPECT_DOUBLE_EQ(spec->deadline, 0.0);
  EXPECT_EQ(spec->max_inflight, 0);
}

TEST(WorkloadSpecTest, ParsesFullSpec) {
  const auto spec = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=8;mix@knn=0.8,window=0.2;k@lo=20,hi=60;"
      "space@kind=hotspot,n=4,sigma=12;deadline@s=2;admit@inflight=64,"
      "queue=16;window@side=25;continuous@period=0.5,rounds=4");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->arrival, ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(spec->rate, 8.0);
  EXPECT_DOUBLE_EQ(spec->mix[static_cast<int>(QueryClass::kKnn)], 0.8);
  EXPECT_DOUBLE_EQ(spec->mix[static_cast<int>(QueryClass::kWindow)], 0.2);
  EXPECT_EQ(spec->k_lo, 20);
  EXPECT_EQ(spec->k_hi, 60);
  EXPECT_EQ(spec->spatial, SpatialKind::kHotspot);
  EXPECT_EQ(spec->hotspots, 4);
  EXPECT_DOUBLE_EQ(spec->hotspot_sigma, 12.0);
  EXPECT_DOUBLE_EQ(spec->deadline, 2.0);
  EXPECT_EQ(spec->max_inflight, 64);
  EXPECT_EQ(spec->queue_capacity, 16);
  EXPECT_DOUBLE_EQ(spec->window_side, 25.0);
  EXPECT_DOUBLE_EQ(spec->continuous_period, 0.5);
  EXPECT_EQ(spec->continuous_rounds, 4);
}

TEST(WorkloadSpecTest, KLoAlonePinsK) {
  const auto spec = WorkloadSpec::Parse("k@lo=12");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->k_lo, 12);
  EXPECT_EQ(spec->k_hi, 12);
}

TEST(WorkloadSpecTest, ClosedLoopArrival) {
  const auto spec =
      WorkloadSpec::Parse("arrival@kind=closed,sessions=16,think=0.25");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->arrival, ArrivalKind::kClosedLoop);
  EXPECT_EQ(spec->sessions, 16);
  EXPECT_DOUBLE_EQ(spec->think_time, 0.25);
}

TEST(WorkloadSpecTest, ParsesServingClauses) {
  const auto spec = WorkloadSpec::Parse(
      "deadline@s=4;admit@inflight=64,queue=16,shed=1;"
      "cache@ttl=2.5,cells=12;coalesce@window=0.75,kslack=8");
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->admit_shed);
  EXPECT_DOUBLE_EQ(spec->cache_ttl, 2.5);
  EXPECT_EQ(spec->cache_cells, 12);
  EXPECT_DOUBLE_EQ(spec->coalesce_window, 0.75);
  EXPECT_EQ(spec->coalesce_kslack, 8);
  const ServingParams params = spec->Serving();
  EXPECT_TRUE(params.Enabled());
  EXPECT_DOUBLE_EQ(params.cache_ttl, 2.5);
  EXPECT_EQ(params.cache_cells, 12);
  EXPECT_DOUBLE_EQ(params.coalesce_window, 0.75);
  EXPECT_EQ(params.coalesce_kslack, 8);
  EXPECT_TRUE(params.shed);
}

TEST(WorkloadSpecTest, ServingDisabledByDefault) {
  const auto spec = WorkloadSpec::Parse("deadline@s=2;admit@inflight=8");
  ASSERT_TRUE(spec.has_value());
  EXPECT_FALSE(spec->admit_shed);
  EXPECT_FALSE(spec->Serving().Enabled());
}

TEST(WorkloadSpecTest, RoundTripsThroughToSpec) {
  const char* specs[] = {
      "",
      "arrival@kind=fixed,rate=4",
      "arrival@kind=closed,sessions=8,think=0.5",
      "arrival@kind=poisson,rate=8;mix@knn=0.8,window=0.2;k@lo=20,hi=60;"
      "space@kind=hotspot,n=4,sigma=12;deadline@s=2;admit@inflight=64,"
      "queue=16",
      "mix@knnb=1,continuous=2,aggregate=0.5;window@side=18;"
      "continuous@period=0.4,rounds=2",
      "deadline@s=4;admit@inflight=64,queue=16,shed=1;cache@ttl=2,cells=8;"
      "coalesce@window=0.5,kslack=4",
      "cache@ttl=1.5,cells=20",
      "coalesce@window=2,kslack=0",
      "admit@shed=1",
  };
  for (const char* s : specs) {
    std::string error;
    const auto first = WorkloadSpec::Parse(s, &error);
    ASSERT_TRUE(first.has_value()) << s << ": " << error;
    const std::string canonical = first->ToSpec();
    const auto second = WorkloadSpec::Parse(canonical, &error);
    ASSERT_TRUE(second.has_value()) << canonical << ": " << error;
    // Canonical form is a fixed point: serializing again is identical.
    EXPECT_EQ(second->ToSpec(), canonical) << s;
    EXPECT_EQ(second->arrival, first->arrival) << s;
    EXPECT_DOUBLE_EQ(second->rate, first->rate) << s;
    EXPECT_EQ(second->sessions, first->sessions) << s;
    EXPECT_EQ(second->mix, first->mix) << s;
    EXPECT_EQ(second->k_lo, first->k_lo) << s;
    EXPECT_EQ(second->k_hi, first->k_hi) << s;
    EXPECT_EQ(second->spatial, first->spatial) << s;
    EXPECT_DOUBLE_EQ(second->deadline, first->deadline) << s;
    EXPECT_EQ(second->max_inflight, first->max_inflight) << s;
    EXPECT_EQ(second->queue_capacity, first->queue_capacity) << s;
  }
}

TEST(WorkloadSpecTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "nonsense",
      "arrival@kind=warp",
      "arrival@kind=poisson,rate=0",
      "arrival@kind=poisson,rate=abc",
      "arrival@kind=closed,sessions=0",
      "arrival@warp=1",
      "mix@knn=-1",
      "mix@plasma=1",
      "mix@knn=0,window=0",
      "k@lo=0",
      "k@lo=5,hi=2",
      "k@lo=two",
      "space@kind=hotspot,n=0",
      "space@kind=hotspot,sigma=-3",
      "deadline@s=-1",
      "admit@inflight=-2",
      "window@side=0",
      "continuous@period=0",
      "continuous@rounds=0",
      "timeseries@interval=0",
      "timeseries@interval=-1",
      "timeseries@interval=1,capacity=-2",
      "timeseries@capacity=16",
      // Non-finite numbers pass no range check, so they never parse.
      "arrival@kind=poisson,rate=nan",
      "arrival@kind=poisson,rate=inf",
      "arrival@kind=closed,sessions=2,think=-inf",
      "trace@rate=nan",
      "deadline@s=nan",
      "deadline@s=inf",
      "cache@ttl=inf",
  };
  for (const char* s : bad) {
    std::string error;
    EXPECT_FALSE(WorkloadSpec::Parse(s, &error).has_value()) << s;
    EXPECT_FALSE(error.empty()) << s;
  }
}

// A closed loop re-arms a session only when its query resolves, so a
// session whose arrival admission rejected or shed would be gone for
// good; the session count is the loop's concurrency bound instead.
TEST(WorkloadSpecTest, ClosedLoopTakesNoAdmitClause) {
  const char* bad[] = {
      "arrival@kind=closed,sessions=8,think=0.5;admit@inflight=2,queue=0",
      "admit@inflight=2,queue=0;arrival@kind=closed,sessions=8",
      "arrival@kind=closed,sessions=8;deadline@s=1.5;admit@shed=1",
      "admit@inflight=0;arrival@kind=closed,sessions=4,think=0",
  };
  for (const char* s : bad) {
    std::string error;
    EXPECT_FALSE(WorkloadSpec::Parse(s, &error).has_value()) << s;
    EXPECT_NE(error.find("admit@"), std::string::npos) << s << ": " << error;
  }
  // Open loops keep their admission clause, and closed loops keep every
  // other clause.
  EXPECT_TRUE(WorkloadSpec::Parse(
                  "arrival@kind=poisson,rate=4;admit@inflight=2,queue=0")
                  .has_value());
  EXPECT_TRUE(WorkloadSpec::Parse("arrival@kind=closed,sessions=8;"
                                  "deadline@s=1.5;cache@ttl=2;"
                                  "coalesce@window=1")
                  .has_value());
}

TEST(WorkloadSpecTest, TimeseriesClauseSetsRecorderCadence) {
  std::string error;
  const auto spec = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=4;timeseries@interval=0.25,capacity=128",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_DOUBLE_EQ(spec->ts_interval, 0.25);
  EXPECT_EQ(spec->ts_capacity, 128);

  // Capacity is optional (0 = the recorder's default ring depth), and
  // the clause survives the canonical round-trip.
  const auto minimal =
      WorkloadSpec::Parse("timeseries@interval=0.5", &error);
  ASSERT_TRUE(minimal.has_value()) << error;
  EXPECT_DOUBLE_EQ(minimal->ts_interval, 0.5);
  EXPECT_EQ(minimal->ts_capacity, 0);

  const std::string canonical = spec->ToSpec();
  const auto again = WorkloadSpec::Parse(canonical, &error);
  ASSERT_TRUE(again.has_value()) << canonical << ": " << error;
  EXPECT_DOUBLE_EQ(again->ts_interval, spec->ts_interval);
  EXPECT_EQ(again->ts_capacity, spec->ts_capacity);
  EXPECT_EQ(again->ToSpec(), canonical);
}

TEST(LatencyHistogramTest, EmptyIsAllZeros) {
  const LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99.0), 0.0);
}

TEST(LatencyHistogramTest, PercentilesTrackSamplesWithinResolution) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i * 0.001);  // 1 ms .. 1 s.
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_NEAR(h.Mean(), 0.5005, 1e-9);
  // 8 buckets/octave gives ~9% relative resolution.
  EXPECT_NEAR(h.Percentile(50.0), 0.5, 0.5 * 0.1);
  EXPECT_NEAR(h.Percentile(95.0), 0.95, 0.95 * 0.1);
  EXPECT_NEAR(h.Percentile(99.0), 0.99, 0.99 * 0.1);
  // Percentiles never leave the observed range.
  EXPECT_GE(h.Percentile(0.0), h.Min());
  EXPECT_LE(h.Percentile(100.0), h.Max());
}

TEST(LatencyHistogramTest, OutOfRangeValuesClampButKeepMinMax) {
  LatencyHistogram h;
  h.Add(1e-6);
  h.Add(500.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.Max(), 500.0);
  EXPECT_LE(h.Percentile(100.0), 500.0);
  EXPECT_GE(h.Percentile(0.0), 1e-6);
}

TEST(LatencyHistogramTest, MergeMatchesCombinedStream) {
  LatencyHistogram a, b, all;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const double v = rng.Exponential(0.3);
    ((i % 2 == 0) ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  // Sums were accumulated in different orders, so the means agree only up
  // to float associativity; the bucket counts (and thus percentiles) are
  // integers and agree exactly.
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-12);
  EXPECT_DOUBLE_EQ(a.Min(), all.Min());
  EXPECT_DOUBLE_EQ(a.Max(), all.Max());
  for (double p : {50.0, 90.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), all.Percentile(p)) << p;
  }
}

TEST(SloReportTest, ConsistencyAndRates) {
  SloReport r;
  r.issued = 100;
  r.completed = 80;
  r.deadline_missed = 10;
  r.rejected = 6;
  r.timed_out = 4;
  r.duration = 40.0;
  EXPECT_TRUE(r.Consistent());
  EXPECT_DOUBLE_EQ(r.GoodputQps(), 2.0);
  EXPECT_DOUBLE_EQ(r.MissRate(), 0.10);
  EXPECT_DOUBLE_EQ(r.RejectRate(), 0.06);
  EXPECT_DOUBLE_EQ(r.TimeoutRate(), 0.04);
  r.timed_out = 5;
  EXPECT_FALSE(r.Consistent());
}

TEST(SloReportTest, MergeAddsCountsAndSumsDurations) {
  SloReport a, b;
  a.issued = 10;
  a.completed = 9;
  a.timed_out = 1;
  a.duration = 20.0;
  a.peak_inflight = 3;
  a.latency.Add(0.1);
  b.issued = 20;
  b.completed = 18;
  b.rejected = 2;
  b.duration = 20.0;
  b.peak_inflight = 7;
  b.latency.Add(0.2);
  a.Merge(b);
  EXPECT_EQ(a.issued, 30u);
  EXPECT_EQ(a.completed, 27u);
  EXPECT_EQ(a.rejected, 2u);
  EXPECT_EQ(a.timed_out, 1u);
  EXPECT_TRUE(a.Consistent());
  EXPECT_EQ(a.peak_inflight, 7u);
  EXPECT_DOUBLE_EQ(a.duration, 40.0);
  EXPECT_EQ(a.latency.Count(), 2u);
}

TEST(SloReportTest, JsonHasTheHeadlineFields) {
  SloReport r;
  r.issued = 4;
  r.completed = 4;
  r.duration = 2.0;
  r.latency.Add(0.25);
  const std::string json = r.ToJson();
  for (const char* key :
       {"\"issued\"", "\"completed\"", "\"goodput_qps\"", "\"p50_s\"",
        "\"p95_s\"", "\"p99_s\"", "\"p999_s\"", "\"miss_rate\"",
        "\"reject_rate\"", "\"timeout_rate\"", "\"peak_inflight\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

}  // namespace
}  // namespace diknn
