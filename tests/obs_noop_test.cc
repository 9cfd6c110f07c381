// Observer-effect regression: tracing must never perturb the simulation.
// A run traced at any rate must produce bit-identical query results,
// RunMetrics, and SloReport to the same run with tracing off — the
// tracer only ever appends to its own vectors and draws no sim RNG.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "obs/tracer.h"

namespace diknn {
namespace {

ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.network.node_count = 70;
  config.network.field = Rect::Field(68.0, 68.0);
  config.workload->k_lo = config.workload->k_hi = 8;
  config.duration = 6.0;
  config.drain = 4.0;
  config.runs = 2;
  return config;
}

void ExpectBitIdentical(const RunMetrics& a, const RunMetrics& b) {
  // SloReport compared as serialized bytes: counts, mean and tails.
  EXPECT_EQ(a.slo.ToJson(), b.slo.ToJson());
  EXPECT_TRUE(a.slo.latency == b.slo.latency);  // Exact sum, buckets.
  // EXPECT_EQ on doubles is exact equality — bit-identity, not tolerance.
  EXPECT_EQ(a.avg_pre_accuracy, b.avg_pre_accuracy);
  EXPECT_EQ(a.avg_post_accuracy, b.avg_post_accuracy);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.beacon_energy_joules, b.beacon_energy_joules);
  EXPECT_EQ(a.average_degree, b.average_degree);
  EXPECT_EQ(a.engine.events_fired, b.engine.events_fired);
}

// The obs snapshots of a traced and an untraced run differ only in the
// tracer's own bookkeeping (tracer.* counters); every simulation-derived
// metric must match bit-for-bit.
void ExpectObsIdenticalModuloTracer(const MetricsSnapshot& a,
                                    const MetricsSnapshot& b) {
  auto drop_tracer = [](const MetricsSnapshot& s) {
    MetricsSnapshot out = s;
    std::erase_if(out.counters, [](const MetricsSnapshot::Counter& c) {
      return c.name.starts_with("tracer.");
    });
    return out;
  };
  EXPECT_EQ(drop_tracer(a), drop_tracer(b));
}

TEST(ObsNoopTest, PaperRunUnchangedByTracing) {
  ExperimentConfig off = BaseConfig();
  ExperimentConfig on = BaseConfig();
  on.trace_sample = 1.0;
  for (uint64_t seed : {42u, 43u}) {
    std::vector<WorkloadQueryRecord> off_records, on_records;
    const RunMetrics a = RunOnce(off, seed, &off_records);
    TraceData trace;
    const RunMetrics b = RunOnce(on, seed, &on_records, &trace);
    ASSERT_GT(a.slo.issued, 0u);
    ASSERT_GT(trace.stats.queries_sampled, 0u);  // Tracing really ran.
    ExpectBitIdentical(a, b);
    ExpectObsIdenticalModuloTracer(a.obs, b.obs);
    // Per-query outcomes, not just aggregates.
    ASSERT_EQ(off_records.size(), on_records.size());
    for (size_t i = 0; i < off_records.size(); ++i) {
      EXPECT_EQ(off_records[i].id, on_records[i].id);
      EXPECT_EQ(off_records[i].latency, on_records[i].latency);
      EXPECT_EQ(off_records[i].pre_accuracy, on_records[i].pre_accuracy);
      EXPECT_EQ(off_records[i].post_accuracy, on_records[i].post_accuracy);
      EXPECT_EQ(off_records[i].outcome, on_records[i].outcome);
    }
  }
}

TEST(ObsNoopTest, PartialSamplingAlsoNoop) {
  // A sampling rate strictly between 0 and 1 exercises the unsampled
  // early-return path on some queries and full recording on others.
  ExperimentConfig off = BaseConfig();
  ExperimentConfig on = BaseConfig();
  on.trace_sample = 0.3;
  const RunMetrics a = RunOnce(off, 42);
  const RunMetrics b = RunOnce(on, 42);
  ASSERT_GT(a.slo.issued, 0u);
  ExpectBitIdentical(a, b);
  ExpectObsIdenticalModuloTracer(a.obs, b.obs);
}

TEST(ObsNoopTest, WorkloadRunUnchangedByTracing) {
  ExperimentConfig config = BaseConfig();
  std::string error;
  config.workload = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=4;mix@knn=60,window=20,aggregate=20;"
      "k@lo=4,hi=10;deadline@s=1.5;admit@inflight=8,queue=4",
      &error);
  ASSERT_TRUE(config.workload.has_value()) << error;

  ExperimentConfig traced = config;
  traced.trace_sample = 1.0;

  for (int jobs : {1, 2, 8}) {
    config.jobs = jobs;
    traced.jobs = jobs;
    const std::vector<RunMetrics> off = RunExperimentRuns(config);
    const std::vector<RunMetrics> on = RunExperimentRuns(traced);
    ASSERT_EQ(off.size(), on.size());
    for (size_t i = 0; i < off.size(); ++i) {
      ASSERT_GT(off[i].slo.issued, 0u);
      ExpectBitIdentical(off[i], on[i]);
      ExpectObsIdenticalModuloTracer(off[i].obs, on[i].obs);
      // The traced runs actually traced.
      EXPECT_GT(on[i].obs.CounterValue("tracer.queries_sampled"), 0u);
      EXPECT_EQ(off[i].obs.CounterValue("tracer.queries_sampled"), 0u);
    }
  }
}

}  // namespace
}  // namespace diknn
