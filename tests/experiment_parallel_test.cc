// Scheduling-independence of the parallel experiment harness: running the
// same (config, seed) repetitions on 1 worker or 8 must yield bit-identical
// per-run metrics and aggregates, because every run owns its entire stack
// and results are collected in seed order.

#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace diknn {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.network.node_count = 80;
  config.network.field = Rect::Field(75.0, 75.0);
  config.workload->k_lo = config.workload->k_hi = 10;
  config.duration = 5.0;
  config.drain = 4.0;
  config.runs = 6;
  return config;
}

void ExpectSameRun(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.slo.ToJson(), b.slo.ToJson());
  EXPECT_TRUE(a.slo.latency == b.slo.latency);  // Exact sum, buckets.
  EXPECT_EQ(a.avg_pre_accuracy, b.avg_pre_accuracy);
  EXPECT_EQ(a.avg_post_accuracy, b.avg_post_accuracy);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.beacon_energy_joules, b.beacon_energy_joules);
  EXPECT_EQ(a.average_degree, b.average_degree);
}

TEST(ExperimentParallel, EightJobsMatchSequentialBitExactly) {
  ExperimentConfig config = SmallConfig();

  config.jobs = 1;
  const std::vector<RunMetrics> sequential = RunExperimentRuns(config);
  config.jobs = 8;
  const std::vector<RunMetrics> parallel = RunExperimentRuns(config);

  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    ExpectSameRun(sequential[i], parallel[i]);
  }
}

TEST(ExperimentParallel, AggregatesIdenticalAcrossJobCounts) {
  ExperimentConfig config = SmallConfig();
  config.runs = 4;

  config.jobs = 1;
  const ExperimentMetrics seq = RunExperiment(config);
  config.jobs = 8;  // Clamped to the run count internally.
  const ExperimentMetrics par = RunExperiment(config);

  EXPECT_EQ(seq.runs, par.runs);
  EXPECT_EQ(seq.latency.mean, par.latency.mean);
  EXPECT_EQ(seq.latency.stddev, par.latency.stddev);
  EXPECT_EQ(seq.energy.mean, par.energy.mean);
  EXPECT_EQ(seq.pre_accuracy.mean, par.pre_accuracy.mean);
  EXPECT_EQ(seq.post_accuracy.mean, par.post_accuracy.mean);
  EXPECT_EQ(seq.timeout_rate.mean, par.timeout_rate.mean);
}

TEST(ExperimentParallel, MatchesLegacySequentialSeedBehavior) {
  // The parallel pool must preserve the historical seed assignment
  // base_seed + i for run i.
  ExperimentConfig config = SmallConfig();
  config.runs = 3;
  config.jobs = 3;
  const std::vector<RunMetrics> pooled = RunExperimentRuns(config);
  for (int i = 0; i < config.runs; ++i) {
    const RunMetrics direct = RunOnce(config, config.base_seed + i);
    ExpectSameRun(pooled[i], direct);
  }
}

}  // namespace
}  // namespace diknn
