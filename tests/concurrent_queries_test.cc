// Concurrent-query correctness: the protocols were originally exercised
// one query at a time (the paper's exp(4 s) arrivals on ~0.5 s queries),
// so dozens of overlapping queries is the regime where per-query state
// bugs hide. These tests hold >= 32 queries in flight simultaneously and
// assert every per-query container drains to zero.

#include <gtest/gtest.h>

#include "faults/lifecycle_auditor.h"
#include "harness/experiment.h"
#include "knn/aggregate.h"
#include "knn/window.h"
#include "net/sensor_field.h"
#include "workload/query_driver.h"

namespace diknn {
namespace {

ExperimentConfig DenseConfig() {
  ExperimentConfig config;
  config.network.node_count = 120;
  config.network.field = Rect::Field(90, 90);
  config.workload->k_lo = config.workload->k_hi = 8;
  config.runs = 1;
  config.drain = 6.0;
  return config;
}

// 40 DIKNN queries issued back-to-back at the same instant: all of them
// are in flight together, every completion is audited, and nothing
// survives the drain.
TEST(ConcurrentQueriesTest, FortySimultaneousDiknnQueriesNoResidue) {
  const ExperimentConfig config = DenseConfig();
  ProtocolStack stack(config, 42);
  Network& net = stack.network();
  LifecycleAuditor auditor(stack.diknn(), &stack.gpsr());
  net.Warmup(config.warmup);

  constexpr int kQueries = 40;
  Rng rng(7);
  int completions = 0;
  int outstanding_at_first_completion = -1;
  for (int i = 0; i < kQueries; ++i) {
    stack.protocol().IssueQuery(
        0, rng.PointInRect(config.network.field), config.workload->k_lo,
        [&](const KnnResult&) {
          if (completions == 0) {
            outstanding_at_first_completion = kQueries - completions;
          }
          ++completions;
        });
  }
  net.sim().RunUntil(net.sim().Now() + 20.0);

  EXPECT_EQ(completions, kQueries);
  // All 40 were open when the first one finished: a genuinely
  // overlapping load, not a serial drizzle.
  EXPECT_GE(outstanding_at_first_completion, 32);
  EXPECT_EQ(auditor.checks(), static_cast<uint64_t>(kQueries));
  EXPECT_EQ(auditor.violations(), 0u) << auditor.Report();
  EXPECT_EQ(auditor.FinalResidue(), 0u) << auditor.Report();
  EXPECT_TRUE(auditor.FlowStateBounded());
}

// The window query's replied_ / last_hop_seen_ / collections_ maps must
// drain with 40 overlapping sweeps (the operator[] resurrection and
// uncancelled-collection bugs leaked exactly here).
TEST(ConcurrentQueriesTest, OverlappingWindowQueriesDrainToZero) {
  const ExperimentConfig config = DenseConfig();
  ProtocolStack stack(config, 43);
  Network& net = stack.network();
  net.Warmup(config.warmup);

  ItineraryWindowQuery window(&net, &stack.gpsr());
  window.Install();

  constexpr int kQueries = 40;
  Rng rng(11);
  int resolved = 0;
  for (int i = 0; i < kQueries; ++i) {
    const Point c = rng.PointInRect({{15, 15}, {75, 75}});
    const Rect rect{{c.x - 12, c.y - 12}, {c.x + 12, c.y + 12}};
    window.IssueQuery(0, rect, [&](const WindowResult&) { ++resolved; });
  }
  net.sim().RunUntil(net.sim().Now() + 60.0);

  EXPECT_EQ(resolved, kQueries);
  EXPECT_EQ(window.stats().queries_issued, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(window.stats().queries_completed + window.stats().timeouts,
            static_cast<uint64_t>(kQueries));
  EXPECT_EQ(window.PerQueryResidue(), 0u)
      << "pending/collections/replied/last_hop entries leaked";
}

// Same drain invariant for the aggregation sweeps.
TEST(ConcurrentQueriesTest, OverlappingAggregateQueriesDrainToZero) {
  const ExperimentConfig config = DenseConfig();
  ProtocolStack stack(config, 44);
  Network& net = stack.network();
  net.Warmup(config.warmup);

  SensorField field = SensorField::Random(config.network.field, 3, 25.0,
                                          20.0, 2.0, /*seed=*/5);
  ItineraryAggregateQuery aggregate(&net, &stack.gpsr(), &field);
  aggregate.Install();

  constexpr int kQueries = 40;
  Rng rng(13);
  int resolved = 0;
  for (int i = 0; i < kQueries; ++i) {
    const Point c = rng.PointInRect({{15, 15}, {75, 75}});
    const Rect rect{{c.x - 12, c.y - 12}, {c.x + 12, c.y + 12}};
    aggregate.IssueQuery(0, rect,
                         [&](const AggregateResult&) { ++resolved; });
  }
  net.sim().RunUntil(net.sim().Now() + 60.0);

  EXPECT_EQ(resolved, kQueries);
  EXPECT_EQ(aggregate.stats().queries_completed + aggregate.stats().timeouts,
            static_cast<uint64_t>(kQueries));
  EXPECT_EQ(aggregate.PerQueryResidue(), 0u)
      << "pending/collections/replied/last_hop entries leaked";
}

// The workload-engine soak the issue asks for: a closed loop holding >=32
// DIKNN queries in flight for the whole run, under loss and a short
// protocol timeout (so stragglers race completions), with the lifecycle
// auditor attached — zero residue, zero violations.
TEST(ConcurrentQueriesTest, WorkloadSoak32InFlightUnderAuditor) {
  ExperimentConfig config = DenseConfig();
  config.network.loss_rate = 0.1;
  config.diknn.query_timeout = 0.8;  // Completion races the traversal.
  config.duration = 30.0;
  config.audit_lifecycle = true;
  std::string error;
  const auto spec = WorkloadSpec::Parse(
      "arrival@kind=closed,sessions=40,think=0;k@lo=8", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  config.workload = *spec;

  const RunMetrics m = RunOnce(config, /*seed=*/42);
  EXPECT_TRUE(m.slo.Consistent());
  EXPECT_GE(m.slo.peak_inflight, 32u);
  EXPECT_GT(m.slo.issued, 100u);
  EXPECT_GT(m.lifecycle_checks, 100u);
  EXPECT_EQ(m.lifecycle_violations, 0u);
  EXPECT_EQ(m.leaked_entries, 0u);
}

// Stale sweep events that outlive their query must be counted as drops,
// never resurrect state: force window-query timeouts by completing
// queries (via the driver deadline... protocol timeout) while sweeps are
// mid-flight, using a lossy network and mixed classes.
TEST(ConcurrentQueriesTest, MixedClassSoakLeavesNoWindowResidue) {
  ExperimentConfig config = DenseConfig();
  config.network.loss_rate = 0.15;
  config.duration = 25.0;
  config.drain = 15.0;  // Long windows need room to resolve.
  std::string error;
  const auto spec = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=4;mix@knn=1,window=1,aggregate=1;k@lo=8",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  config.workload = *spec;

  ProtocolStack stack(config, 45);
  stack.network().Warmup(config.warmup);
  QueryDriver driver(&stack.network(), &stack.gpsr(), &stack.protocol(),
                     *config.workload, /*seed=*/17, /*sink=*/0);
  const SloReport report = driver.Run(config.duration, config.drain);
  EXPECT_TRUE(report.Consistent());
  EXPECT_GT(report.issued, 50u);
  // Every resolved query — including protocol timeouts under loss — must
  // have torn its window/aggregate engine state down completely.
  ASSERT_NE(driver.window_engine(), nullptr);
  ASSERT_NE(driver.aggregate_engine(), nullptr);
  EXPECT_EQ(driver.window_engine()->PerQueryResidue(), 0u);
  EXPECT_EQ(driver.aggregate_engine()->PerQueryResidue(), 0u);
  EXPECT_GT(driver.window_engine()->stats().queries_completed, 0u);
  EXPECT_GT(driver.aggregate_engine()->stats().queries_completed, 0u);
}

}  // namespace
}  // namespace diknn
