#include "harness/metrics.h"

#include <gtest/gtest.h>

namespace diknn {
namespace {

TEST(SummarizeTest, EmptyIsZeroed) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(SummarizeTest, SingleValue) {
  const Summary s = Summarize({5.0});
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 5.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(SummarizeTest, KnownStatistics) {
  const Summary s = Summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  // Sample stddev with n-1 = 7: variance 32/7.
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

// Percentiles(values, ps) element by element against `want`.
void ExpectPercentiles(const std::vector<double>& values,
                       const std::vector<double>& ps,
                       const std::vector<double>& want) {
  const std::vector<double> got = Percentiles(values, ps);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], want[i]) << "p" << ps[i];
  }
}

TEST(PercentilesTest, EmptyIsZero) {
  ExpectPercentiles({}, {50.0, 99.0}, {0.0, 0.0});
}

TEST(PercentilesTest, SingleValue) {
  ExpectPercentiles({7.0}, {0.0, 100.0}, {7.0, 7.0});
}

TEST(PercentilesTest, InterpolatesBetweenOrderStatistics) {
  ExpectPercentiles({1.0, 2.0, 3.0, 4.0, 5.0},
                    {0.0, 50.0, 100.0, 25.0, 90.0},
                    {1.0, 3.0, 5.0, 2.0, 4.6});
}

TEST(PercentilesTest, UnsortedInputHandled) {
  // One sort serves every p, answered in the order asked.
  ExpectPercentiles({9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0},
                    {100.0, 0.0, 50.0, 25.0}, {9.0, 1.0, 5.0, 2.5});
}

TEST(PercentilesTest, ClampsOutOfRangeP) {
  ExpectPercentiles({1.0, 2.0}, {-5.0, 200.0}, {1.0, 2.0});
}

// A run whose SloReport saw `timed_out` of its `issued` queries time out
// and the rest resolve at `latencies`.
RunMetrics RunWithSlo(uint64_t issued, uint64_t timed_out,
                      const std::vector<double>& latencies) {
  RunMetrics r;
  r.slo.issued = issued;
  r.slo.timed_out = timed_out;
  r.slo.completed = latencies.size();
  for (double v : latencies) r.slo.latency.Add(v);
  return r;
}

TEST(AggregateRunsTest, CombinesAcrossRuns) {
  RunMetrics a = RunWithSlo(10, 1, {1.5, 2.5});
  a.avg_pre_accuracy = 0.8;
  a.avg_post_accuracy = 0.9;
  a.energy_joules = 5.0;
  RunMetrics b = RunWithSlo(10, 3, {4.0});
  b.avg_pre_accuracy = 0.8;
  b.avg_post_accuracy = 0.9;
  b.energy_joules = 7.0;

  const ExperimentMetrics m = AggregateRuns({a, b});
  EXPECT_EQ(m.runs, 2);
  EXPECT_DOUBLE_EQ(m.latency.mean, 3.0);
  EXPECT_DOUBLE_EQ(m.energy.mean, 6.0);
  EXPECT_DOUBLE_EQ(m.pre_accuracy.mean, 0.8);
  EXPECT_DOUBLE_EQ(m.timeout_rate.mean, 0.2);
}

// Mean latency averages resolved queries only, so a run in which every
// query timed out has none: it counts in the timeout rate and stays out
// of the latency summary instead of entering it as 0.
TEST(AggregateRunsTest, RunWithoutResolvedQueriesLeavesLatencyOut) {
  const RunMetrics resolved = RunWithSlo(4, 1, {2.0, 3.0, 4.0});
  const RunMetrics none = RunWithSlo(4, 4, {});
  const ExperimentMetrics m = AggregateRuns({resolved, none});
  EXPECT_EQ(m.latency.count, 1);
  EXPECT_DOUBLE_EQ(m.latency.mean, 3.0);
  EXPECT_DOUBLE_EQ(m.timeout_rate.mean, 0.625);
}

TEST(AggregateRunsTest, EmptyRuns) {
  const ExperimentMetrics m = AggregateRuns({});
  EXPECT_EQ(m.runs, 0);
  EXPECT_EQ(m.latency.count, 0);
}

}  // namespace
}  // namespace diknn
