// End-to-end harness tests: short simulation runs per protocol, checking
// the experiment pipeline produces coherent metrics and the qualitative
// relationships the paper's evaluation rests on.

#include "harness/experiment.h"

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "faults/fault_injector.h"

namespace diknn {
namespace {

ExperimentConfig ShortConfig(ProtocolKind kind) {
  ExperimentConfig config;
  config.protocol = kind;
  config.workload->k_lo = config.workload->k_hi = 15;
  config.duration = 24.0;  // ~6 queries.
  config.runs = 1;
  config.base_seed = 11;
  return config;
}

class ProtocolRunTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ProtocolRunTest, ProducesCoherentMetrics) {
  std::vector<WorkloadQueryRecord> records;
  const RunMetrics m = RunOnce(ShortConfig(GetParam()), 11, &records);
  EXPECT_GT(m.slo.issued, 2u);
  EXPECT_EQ(m.slo.issued, records.size());
  EXPECT_GT(m.slo.latency.Mean(), 0.0);
  EXPECT_LT(m.slo.latency.Mean(), 9.0);
  EXPECT_GE(m.avg_pre_accuracy, 0.0);
  EXPECT_LE(m.avg_pre_accuracy, 1.0);
  EXPECT_GE(m.avg_post_accuracy, 0.0);
  EXPECT_LE(m.avg_post_accuracy, 1.0);
  EXPECT_GT(m.energy_joules, 0.0);
  EXPECT_GT(m.beacon_energy_joules, 0.0);
  EXPECT_GT(m.average_degree, 5.0);
  EXPECT_TRUE(m.slo.Consistent());
}

TEST_P(ProtocolRunTest, DeterministicForSameSeed) {
  const RunMetrics a = RunOnce(ShortConfig(GetParam()), 23);
  const RunMetrics b = RunOnce(ShortConfig(GetParam()), 23);
  EXPECT_EQ(a.slo.ToJson(), b.slo.ToJson());
  EXPECT_TRUE(a.slo.latency == b.slo.latency);  // Exact sum, buckets.
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
  EXPECT_DOUBLE_EQ(a.avg_post_accuracy, b.avg_post_accuracy);
}

// Under node kills, ACK loss and duplicated frames every issued query
// still completes exactly once, and the protocol's ledger drains.
TEST_P(ProtocolRunTest, EveryQueryCompletesOnceUnderFaults) {
  const ExperimentConfig config = ShortConfig(GetParam());
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::Parse(
      "kill@t=5,count=10;ackloss@t=3,dur=10,prob=0.3;dup@t=2,dur=20,prob=0.3",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ProtocolStack stack(config, 11);
  Network& net = stack.network();
  Simulator& sim = net.sim();
  net.Warmup(config.warmup);
  FaultInjector injector(&net, *plan, 11);
  injector.Arm();

  constexpr int kQueries = 12;
  std::vector<int> fired(kQueries, 0);
  Rng rng(11);
  const SimTime start = sim.Now();
  for (int i = 0; i < kQueries; ++i) {
    sim.ScheduleAt(start + 1.5 * i, [&, i]() {
      const NodeId sink = rng.UniformInt(0, config.network.node_count - 1);
      stack.protocol().IssueQuery(sink, rng.PointInRect(config.network.field),
                                  config.workload->k_lo,
                                  [&fired, i](const KnnResult&) {
                                    ++fired[i];
                                  });
    });
  }
  // Past the last query's timeout: every query has completed.
  sim.RunUntil(start + 1.5 * kQueries + 20.0);
  EXPECT_EQ(fired, std::vector<int>(kQueries, 1));
  EXPECT_EQ(stack.protocol().pending_queries(), 0u);
  EXPECT_GT(injector.stats().Total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolRunTest,
    ::testing::Values(ProtocolKind::kDiknn, ProtocolKind::kKptKnnb,
                      ProtocolKind::kPeerTree, ProtocolKind::kFlooding,
                      ProtocolKind::kCentralized),
    [](const auto& info) {
      switch (info.param) {
        case ProtocolKind::kDiknn:
          return "Diknn";
        case ProtocolKind::kKptKnnb:
          return "Kpt";
        case ProtocolKind::kPeerTree:
          return "PeerTree";
        case ProtocolKind::kFlooding:
          return "Flooding";
        case ProtocolKind::kCentralized:
          return "Centralized";
      }
      return "Unknown";
    });

TEST(ExperimentTest, RunExperimentAggregates) {
  ExperimentConfig config = ShortConfig(ProtocolKind::kDiknn);
  config.runs = 2;
  const ExperimentMetrics m = RunExperiment(config);
  EXPECT_EQ(m.runs, 2);
  EXPECT_EQ(m.latency.count, 2);
  EXPECT_GT(m.latency.mean, 0.0);
}

TEST(ExperimentTest, ProtocolNames) {
  EXPECT_STREQ(ProtocolName(ProtocolKind::kDiknn), "DIKNN");
  EXPECT_STREQ(ProtocolName(ProtocolKind::kKptKnnb), "KPT+KNNB");
  EXPECT_STREQ(ProtocolName(ProtocolKind::kPeerTree), "PeerTree");
  EXPECT_STREQ(ProtocolName(ProtocolKind::kFlooding), "Flooding");
}

// The paper's headline qualitative result on a small scale: DIKNN beats
// the baselines on accuracy at the default operating point.
TEST(ExperimentTest, DiknnAccuracyBeatsBaselines) {
  ExperimentConfig config = ShortConfig(ProtocolKind::kDiknn);
  config.duration = 40.0;
  config.workload->k_lo = config.workload->k_hi = 20;
  const RunMetrics diknn = RunOnce(config, 31);
  config.protocol = ProtocolKind::kKptKnnb;
  const RunMetrics kpt = RunOnce(config, 31);
  config.protocol = ProtocolKind::kPeerTree;
  const RunMetrics peertree = RunOnce(config, 31);

  EXPECT_GT(diknn.avg_post_accuracy, kpt.avg_post_accuracy - 0.05);
  EXPECT_GT(diknn.avg_post_accuracy, peertree.avg_post_accuracy - 0.05);
  EXPECT_GT(diknn.avg_post_accuracy, 0.6);
}

TEST(ExperimentTest, PeerTreeMaintenanceDominatesItsEnergy) {
  ExperimentConfig config = ShortConfig(ProtocolKind::kPeerTree);
  config.duration = 30.0;
  ProtocolStack stack(config, 17);
  stack.network().Warmup(config.warmup);
  stack.network().sim().RunUntil(stack.network().sim().Now() + 30.0);
  // Registrations alone (no queries issued) already cost real energy.
  EXPECT_GT(stack.network().TotalEnergy(EnergyCategory::kMaintenance),
            0.1);
}

TEST(ExperimentTest, StaticSinkConfigPinsNodeZero) {
  ExperimentConfig config = ShortConfig(ProtocolKind::kDiknn);
  config.static_sink = true;
  ProtocolStack stack(config, 5);
  Network& net = stack.network();
  const Point before = net.node(0)->Position();
  net.Warmup(5.0);
  EXPECT_EQ(net.node(0)->Position(), before);
}

}  // namespace
}  // namespace diknn
