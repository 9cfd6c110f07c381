// Query-lifecycle hardening tests: regression coverage for the per-query
// state leaks (replied_ resurrection, post-completion stragglers,
// dead-node retries, orphaned collection windows) plus the fault-injected
// soak that asserts thousands of queries drain without residue.

#include <gtest/gtest.h>

#include "faults/fault_injector.h"
#include "faults/lifecycle_auditor.h"
#include "harness/experiment.h"

namespace diknn {
namespace {

// A small, hostile world: tight field, short timeouts, lossy air. Queries
// regularly time out at the sink while their itineraries are still being
// traversed, which is exactly the straggler regime the lifecycle fixes
// target.
ExperimentConfig HostileConfig() {
  ExperimentConfig config;
  config.network.node_count = 120;
  config.network.field = Rect::Field(90, 90);
  config.network.loss_rate = 0.15;
  config.workload->k_lo = config.workload->k_hi = 10;
  config.workload->rate = 2.0;  // One query per 0.5 s on average.
  config.runs = 1;
  config.duration = 30.0;
  config.diknn.query_timeout = 0.6;  // Completion races the traversal.
  config.drain = 3.0;
  config.audit_lifecycle = true;
  return config;
}

struct StressOutcome {
  DiknnStats stats;
  DiknnLifecycleCounts counts;
  uint64_t checks = 0;
  uint64_t violations = 0;
  size_t residue = 0;
  size_t frames_in_flight = 0;
  bool flow_bounded = true;
  int completions = 0;
};

// Drives a ProtocolStack by hand (RunOnce hides the Diknn instance, and
// the regression assertions need its counters).
StressOutcome RunStress(const ExperimentConfig& config, uint64_t seed,
                        const std::string& fault_spec) {
  ProtocolStack stack(config, seed);
  Network& net = stack.network();
  LifecycleAuditor auditor(stack.diknn(), &stack.gpsr());
  net.Warmup(config.warmup);

  std::unique_ptr<FaultInjector> injector;
  if (!fault_spec.empty()) {
    const auto plan = FaultPlan::Parse(fault_spec);
    EXPECT_TRUE(plan.has_value()) << fault_spec;
    injector = std::make_unique<FaultInjector>(&net, *plan, seed + 1);
    injector->Arm();
  }

  Rng rng(seed);
  int completions = 0;
  const SimTime deadline = net.sim().Now() + config.duration;
  // Issue the Poisson workload from the sink like the harness does.
  std::function<void()> issue_next = [&]() {
    const SimTime next =
        net.sim().Now() + rng.Exponential(1.0 / config.workload->rate);
    if (next >= deadline) return;
    net.sim().ScheduleAt(next, [&]() {
      const Point q = rng.PointInRect(config.network.field);
      stack.protocol().IssueQuery(0, q, config.workload->k_lo,
                                  [&](const KnnResult&) { ++completions; });
      issue_next();
    });
  };
  issue_next();
  net.sim().RunUntil(deadline + config.drain);

  StressOutcome out;
  out.stats = stack.diknn()->stats();
  out.counts = stack.diknn()->lifecycle_counts();
  out.checks = auditor.checks();
  out.violations = auditor.violations();
  out.residue = auditor.FinalResidue();
  out.frames_in_flight = net.channel().frames_in_flight();
  out.flow_bounded = auditor.FlowStateBounded();
  out.completions = completions;
  return out;
}

// Regression: OnProbe's unicast-failure callbacks used replied_[id].erase,
// re-inserting an empty set after CompleteQuery had erased the query, and
// StartQNode / FinishSector re-populated last_hop_seen_ /
// finished_sectors_ from straggling traversal branches. Under short
// timeouts + loss those paths fire constantly; with the guards in place
// the containers drain to zero and the dropped work is counted.
TEST(LifecycleRegressionTest, TimedOutStragglersLeaveNoResidue) {
  const StressOutcome out = RunStress(HostileConfig(), 42, "");
  EXPECT_GT(out.stats.timeouts, 0u);
  EXPECT_GT(out.stats.stale_branches_dropped, 0u);
  EXPECT_EQ(out.violations, 0u);
  EXPECT_EQ(out.residue, 0u) << "leaked per-query entries";
  // Container by container: the fork-suppression map and the buffered
  // rendezvous broadcasts are the two that historically leaked from
  // straggling traversal branches.
  EXPECT_EQ(out.counts.last_hop_seen, 0u);
  EXPECT_EQ(out.counts.heard_rendezvous_entries, 0u);
  EXPECT_EQ(out.counts.replied_queries, 0u);
  EXPECT_EQ(out.counts.collections, 0u);
  EXPECT_GT(out.checks, 0u);
}

// Regression: CompleteQuery left scheduled FinishCollection events and
// collections_ entries alive, so timed-out queries kept traversing and
// probing. Cancelled windows are now counted.
TEST(LifecycleRegressionTest, CompletionCancelsOpenCollections) {
  const StressOutcome out = RunStress(HostileConfig(), 43, "");
  EXPECT_GT(out.stats.collections_cancelled, 0u);
  EXPECT_EQ(out.residue, 0u);
}

// Regression: ForwardAlongItinerary's MAC-failure callback re-entered
// forwarding from a node killed mid-retry. With churn killing nodes while
// itineraries are in flight, the liveness guards must fire and the
// containers must still drain.
TEST(LifecycleRegressionTest, DeadNodesDropTraversalWork) {
  ExperimentConfig config = HostileConfig();
  config.network.loss_rate = 0.25;  // Force MAC retries and lost ACKs.
  const StressOutcome out = RunStress(
      config, 44, "churn@t=0,up=3,down=2;ackloss@t=5,dur=10,prob=0.7");
  EXPECT_GT(out.stats.dead_node_drops, 0u);
  EXPECT_EQ(out.violations, 0u);
  EXPECT_EQ(out.residue, 0u);
  EXPECT_EQ(out.counts.last_hop_seen, 0u);
  EXPECT_EQ(out.counts.heard_rendezvous_entries, 0u);
  EXPECT_TRUE(out.flow_bounded);
  // Frame-pool slots are released when each delivery event fires, so
  // after the drain the air holds at most the beacons of the final
  // instant. A leaked slot (dropped or duplicated frame that never
  // released) accumulates into the hundreds over a faulted run.
  EXPECT_LE(out.frames_in_flight, 8u);
}

// Sanity for the audit itself: ResidueFor / lifecycle_counts must see
// the in-flight state (otherwise zero-residue assertions are vacuous),
// and it must all be gone once the query completes.
TEST(LifecycleRegressionTest, ResidueIsVisibleMidQueryAndGoneAfter) {
  ExperimentConfig config = HostileConfig();
  config.diknn.query_timeout = 8.0;  // Let the query actually finish.
  ProtocolStack stack(config, 42);
  Network& net = stack.network();
  net.Warmup(config.warmup);

  bool done = false;
  stack.protocol().IssueQuery(0, config.network.field.Center(),
                              config.workload->k_lo,
                              [&](const KnnResult&) { done = true; });
  net.sim().RunUntil(net.sim().Now() + 0.2);
  ASSERT_FALSE(done);
  // IssueQuery assigns ids from 1.
  EXPECT_GE(stack.diknn()->ResidueFor(1), 1u);
  EXPECT_GE(stack.diknn()->lifecycle_counts().TotalPerQuery(), 1u);

  net.sim().RunUntil(net.sim().Now() + 10.0);
  ASSERT_TRUE(done);
  EXPECT_EQ(stack.diknn()->ResidueFor(1), 0u);
  EXPECT_EQ(stack.diknn()->lifecycle_counts().TotalPerQuery(), 0u);
}

// The tentpole soak: thousands of queries under node kills, churn,
// ACK-loss bursts, frame drops/duplication and sink freezes — every
// completion audited, zero residue at the end.
TEST(LifecycleSoakTest, ThousandsOfFaultedQueriesLeaveNoResidue) {
  ExperimentConfig config;
  config.network.node_count = 120;
  config.network.field = Rect::Field(90, 90);
  config.network.loss_rate = 0.1;
  config.workload->k_lo = config.workload->k_hi = 8;
  config.workload->rate = 20.0;  // ~2200 queries per run.
  config.runs = 1;
  config.duration = 110.0;
  config.diknn.query_timeout = 1.5;
  config.drain = 3.0;
  config.audit_lifecycle = true;
  const auto plan = FaultPlan::Parse(
      "kill@t=5,count=8;churn@t=10,up=15,down=5;"
      "ackloss@t=20,dur=5,prob=0.8;drop@t=40,dur=5,prob=0.3;"
      "dup@t=60,dur=10,prob=0.2;freeze@t=80,node=0,dur=5;"
      "teleport@t=90,node=0,x=20,y=20,dur=5");
  ASSERT_TRUE(plan.has_value());
  config.faults = *plan;

  const RunMetrics m = RunOnce(config, /*seed=*/42);
  EXPECT_GE(m.slo.issued, 2000u);
  EXPECT_GE(m.lifecycle_checks, 2000u);
  EXPECT_EQ(m.lifecycle_violations, 0u);
  EXPECT_EQ(m.leaked_entries, 0u);
  EXPECT_GT(m.faults_injected, 0u);
}

// Serving-stack soak: a cached + coalesced workload under the same fault
// cocktail. Leaders get killed, frozen and timed out mid-itinerary with
// followers attached; the fan-out path must finalize every follower
// (issued == completed + missed + rejected + timed_out), the auditor must
// see zero protocol residue, and the coalescer itself must drain.
TEST(LifecycleSoakTest, FaultedServedWorkloadBalancesAndLeavesNoResidue) {
  ExperimentConfig config;
  config.network.node_count = 120;
  config.network.field = Rect::Field(90, 90);
  config.network.loss_rate = 0.1;
  config.runs = 1;
  config.duration = 60.0;
  config.diknn.query_timeout = 1.5;
  config.drain = 4.0;
  config.audit_lifecycle = true;
  std::string error;
  const auto spec = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=12;k@lo=8;"
      "space@kind=hotspot,n=2,sigma=5,skew=1.2;deadline@s=2;"
      "admit@inflight=128,queue=32,shed=1;"
      "cache@ttl=2,cells=3;coalesce@window=3,kslack=6",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  config.workload = *spec;
  const auto plan = FaultPlan::Parse(
      "kill@t=5,count=8;churn@t=10,up=15,down=5;"
      "ackloss@t=20,dur=5,prob=0.8;drop@t=30,dur=5,prob=0.3;"
      "dup@t=40,dur=10,prob=0.2;freeze@t=50,node=0,dur=4");
  ASSERT_TRUE(plan.has_value());
  config.faults = *plan;

  const RunMetrics m = RunOnce(config, /*seed=*/42);
  EXPECT_TRUE(m.slo.Consistent())
      << "issued=" << m.slo.issued << " completed=" << m.slo.completed
      << " missed=" << m.slo.deadline_missed
      << " rejected=" << m.slo.rejected << " timed_out=" << m.slo.timed_out;
  EXPECT_GT(m.slo.issued, 400u);
  // The serving stages all exercised under faults.
  EXPECT_GT(m.slo.serving.cache_hits, 0u);
  EXPECT_GT(m.slo.serving.coalesced, 0u);
  EXPECT_LE(m.slo.serving.fanned_out, m.slo.serving.coalesced);
  EXPECT_GT(m.slo.timed_out, 0u);  // Some leaders really died/timed out.
  // Zero protocol residue and a clean audit despite the fan-out paths.
  EXPECT_GT(m.lifecycle_checks, 0u);
  EXPECT_EQ(m.lifecycle_violations, 0u);
  EXPECT_EQ(m.leaked_entries, 0u);
  EXPECT_GT(m.faults_injected, 0u);
}

// Same seed + same fault plan must be bit-identical at any --jobs count:
// the injector and auditor live entirely inside each run's own stack.
TEST(LifecycleSoakTest, FaultedRunsAreBitIdenticalAcrossJobs) {
  ExperimentConfig config;
  config.network.node_count = 120;
  config.network.field = Rect::Field(90, 90);
  config.network.loss_rate = 0.1;
  config.workload->k_lo = config.workload->k_hi = 8;
  config.workload->rate = 2.5;  // One query per 0.4 s on average.
  config.runs = 3;
  config.duration = 15.0;
  config.audit_lifecycle = true;
  const auto plan = FaultPlan::Parse(
      "kill@t=2,count=5;churn@t=4,up=10,down=4;ackloss@t=6,dur=3,prob=0.6");
  ASSERT_TRUE(plan.has_value());
  config.faults = *plan;

  config.jobs = 1;
  const std::vector<RunMetrics> serial = RunExperimentRuns(config);
  config.jobs = 3;
  const std::vector<RunMetrics> parallel = RunExperimentRuns(config);

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const RunMetrics& a = serial[i];
    const RunMetrics& b = parallel[i];
    EXPECT_EQ(a.slo.ToJson(), b.slo.ToJson()) << i;
    EXPECT_TRUE(a.slo.latency == b.slo.latency) << i;
    EXPECT_EQ(a.avg_pre_accuracy, b.avg_pre_accuracy) << i;
    EXPECT_EQ(a.avg_post_accuracy, b.avg_post_accuracy) << i;
    EXPECT_EQ(a.energy_joules, b.energy_joules) << i;
    EXPECT_EQ(a.beacon_energy_joules, b.beacon_energy_joules) << i;
    EXPECT_EQ(a.faults_injected, b.faults_injected) << i;
    EXPECT_EQ(a.lifecycle_checks, b.lifecycle_checks) << i;
    EXPECT_EQ(a.lifecycle_violations, b.lifecycle_violations) << i;
    EXPECT_EQ(a.leaked_entries, b.leaked_entries) << i;
  }
}

}  // namespace
}  // namespace diknn
