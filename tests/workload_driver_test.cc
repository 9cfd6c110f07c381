// QueryDriver behaviour: admission accounting, deadlines, closed-loop
// concurrency caps, mixed query classes, and bit-identical SloReports at
// any --jobs setting.

#include "workload/query_driver.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/alloc_probe.h"
#include "harness/experiment.h"
#include "knn/query.h"
#include "net/network.h"

namespace diknn {
namespace {

// A compact world the driver can saturate quickly.
ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.network.node_count = 100;
  config.network.field = Rect::Field(90, 90);
  config.runs = 1;
  config.duration = 20.0;
  config.drain = 6.0;
  return config;
}

WorkloadSpec MustParse(const std::string& s) {
  std::string error;
  const auto spec = WorkloadSpec::Parse(s, &error);
  EXPECT_TRUE(spec.has_value()) << s << ": " << error;
  return *spec;
}

TEST(QueryDriverTest, OutcomePartitionSumsToIssued) {
  ExperimentConfig config = BaseConfig();
  // Overload on purpose: 16 q/s against a 4-query admission bound with a
  // 2-slot queue guarantees queueing AND rejections.
  config.workload = MustParse(
      "arrival@kind=poisson,rate=16;k@lo=10;admit@inflight=4,queue=2");
  const RunMetrics m = RunOnce(config, /*seed=*/42);
  EXPECT_TRUE(m.slo.Consistent())
      << "issued=" << m.slo.issued << " completed=" << m.slo.completed
      << " missed=" << m.slo.deadline_missed << " rejected=" << m.slo.rejected
      << " timed_out=" << m.slo.timed_out;
  EXPECT_GT(m.slo.issued, 100u);
  EXPECT_GT(m.slo.completed, 0u);
  EXPECT_GT(m.slo.rejected, 0u);
  // The admission bound really bounds concurrency.
  EXPECT_LE(m.slo.peak_inflight, 4u);
}

TEST(QueryDriverTest, DeadlinesScoreFinishedQueriesAsMisses) {
  ExperimentConfig config = BaseConfig();
  // A 5 ms deadline is unmeetable in a multi-hop network, so everything
  // that finishes is a miss and goodput collapses to zero.
  config.workload =
      MustParse("arrival@kind=poisson,rate=2;k@lo=10;deadline@s=0.005");
  const RunMetrics m = RunOnce(config, /*seed=*/42);
  EXPECT_TRUE(m.slo.Consistent());
  EXPECT_GT(m.slo.deadline_missed, 0u);
  EXPECT_EQ(m.slo.completed, 0u);
  EXPECT_DOUBLE_EQ(m.slo.GoodputQps(), 0.0);
  EXPECT_GT(m.slo.MissRate(), 0.5);
  // Misses still finished, so they populate the latency distribution.
  EXPECT_EQ(m.slo.latency.Count(),
            m.slo.completed + m.slo.deadline_missed);
}

TEST(QueryDriverTest, ClosedLoopHoldsConcurrencyAtSessionCount) {
  ExperimentConfig config = BaseConfig();
  config.workload =
      MustParse("arrival@kind=closed,sessions=6,think=0;k@lo=10");
  const RunMetrics m = RunOnce(config, /*seed=*/42);
  EXPECT_TRUE(m.slo.Consistent());
  // All sessions fire at t=0, so the peak hits the cap exactly; think=0
  // keeps it pinned there.
  EXPECT_EQ(m.slo.peak_inflight, 6u);
  EXPECT_GT(m.slo.issued, 6u);  // Sessions re-issue after completion.
}

TEST(QueryDriverTest, MixedClassesAllIssueAndResolve) {
  ExperimentConfig config = BaseConfig();
  config.duration = 30.0;
  config.workload = MustParse(
      "arrival@kind=poisson,rate=4;"
      "mix@knn=1,knnb=1,window=1,continuous=1,aggregate=1;"
      "k@lo=5,hi=15;space@kind=hotspot,n=3,sigma=15;"
      "window@side=25;continuous@period=0.5,rounds=2");
  const RunMetrics m = RunOnce(config, /*seed=*/42);
  EXPECT_TRUE(m.slo.Consistent());
  for (int c = 0; c < kNumQueryClasses; ++c) {
    EXPECT_GT(m.slo.issued_by_class[c], 0u)
        << QueryClassName(static_cast<QueryClass>(c));
  }
  // The run must resolve most of what it issued (not wholesale timeout).
  EXPECT_GT(m.slo.completed, m.slo.issued / 2);
  // KNN-class queries were scored against the oracle.
  EXPECT_GT(m.avg_post_accuracy, 0.0);
}

TEST(QueryDriverTest, ReportsAreBitIdenticalAcrossJobs) {
  ExperimentConfig config = BaseConfig();
  config.duration = 12.0;
  config.runs = 3;
  config.workload = MustParse(
      "arrival@kind=poisson,rate=6;mix@knn=0.7,window=0.3;k@lo=8,hi=12;"
      "space@kind=hotspot,n=4,sigma=12;deadline@s=1.5;"
      "admit@inflight=16,queue=8");

  config.jobs = 1;
  const std::vector<RunMetrics> serial = RunExperimentRuns(config);
  config.jobs = 3;
  const std::vector<RunMetrics> parallel = RunExperimentRuns(config);

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const SloReport& a = serial[i].slo;
    const SloReport& b = parallel[i].slo;
    EXPECT_EQ(a.issued, b.issued) << i;
    EXPECT_EQ(a.completed, b.completed) << i;
    EXPECT_EQ(a.deadline_missed, b.deadline_missed) << i;
    EXPECT_EQ(a.rejected, b.rejected) << i;
    EXPECT_EQ(a.timed_out, b.timed_out) << i;
    EXPECT_EQ(a.issued_by_class, b.issued_by_class) << i;
    EXPECT_EQ(a.peak_inflight, b.peak_inflight) << i;
    EXPECT_EQ(a.latency.Count(), b.latency.Count()) << i;
    EXPECT_EQ(a.latency.Mean(), b.latency.Mean()) << i;
    EXPECT_EQ(a.p50(), b.p50()) << i;
    EXPECT_EQ(a.p95(), b.p95()) << i;
    EXPECT_EQ(a.p99(), b.p99()) << i;
    EXPECT_EQ(serial[i].avg_pre_accuracy, parallel[i].avg_pre_accuracy) << i;
    EXPECT_EQ(serial[i].avg_post_accuracy, parallel[i].avg_post_accuracy)
        << i;
    EXPECT_EQ(serial[i].energy_joules, parallel[i].energy_joules) << i;
  }
  // Merging per-run reports is order-free integer addition, so the
  // aggregate is identical too.
  const ExperimentMetrics ea = AggregateRuns(serial);
  const ExperimentMetrics eb = AggregateRuns(parallel);
  EXPECT_EQ(ea.slo.issued, eb.slo.issued);
  EXPECT_EQ(ea.slo.p95(), eb.slo.p95());
  EXPECT_EQ(ea.goodput.mean, eb.goodput.mean);
}

TEST(QueryDriverTest, FixedRateIssuesDeterministicCount) {
  ExperimentConfig config = BaseConfig();
  config.duration = 10.0;
  config.workload = MustParse("arrival@kind=fixed,rate=2;k@lo=10");
  const RunMetrics m = RunOnce(config, /*seed=*/42);
  // Fixed spacing of 0.5 s over a 10 s window, first arrival at 0.5:
  // arrivals at 0.5, 1.0, ..., 9.5.
  EXPECT_EQ(m.slo.issued, 19u);
  EXPECT_TRUE(m.slo.Consistent());
}

TEST(QueryDriverTest, RecordsCarryQueueWaitUnderAdmissionPressure) {
  ExperimentConfig config = BaseConfig();
  config.duration = 15.0;
  config.workload = MustParse(
      "arrival@kind=poisson,rate=12;k@lo=10;admit@inflight=2,queue=8");
  ProtocolStack stack(config, 42);
  stack.network().Warmup(config.warmup);
  QueryDriver driver(&stack.network(), &stack.gpsr(), &stack.protocol(),
                     *config.workload, /*seed=*/99, /*sink=*/0);
  const SloReport report = driver.Run(config.duration, config.drain);
  EXPECT_TRUE(report.Consistent());
  bool saw_queue_wait = false;
  for (const WorkloadQueryRecord& r : driver.records()) {
    if (r.queue_wait > 0.0) {
      saw_queue_wait = true;
      // Latency includes the wait (arrival-to-resolution accounting).
      if (r.outcome == QueryOutcome::kCompleted) {
        EXPECT_GE(r.latency, r.queue_wait);
      }
    }
  }
  EXPECT_TRUE(saw_queue_wait);
}

// Answers each query with the true KNN 10 ms after issue, completing it
// from inside an armed AllocScope, as KPT and Peer-tree complete theirs
// from a frame delivery. The answer is built before the scope is armed,
// so everything the scope counts was allocated on the completion path.
class ScopedCompletionProtocol : public KnnProtocol {
 public:
  explicit ScopedCompletionProtocol(Network* network) : network_(network) {}

  void Install() override {}
  void IssueQuery(NodeId /*sink*/, Point q, int k,
                  ResultHandler handler) override {
    Simulator& sim = network_->sim();
    KnnResult result;
    result.issued_at = sim.Now();
    result.completed_at = sim.Now() + 0.01;
    for (NodeId id : network_->TrueKnn(q, k)) {
      result.candidates.push_back(
          KnnCandidate{id, network_->node(id)->Position()});
    }
    ++pending_;
    sim.ScheduleAfter(0.01, [this, result = std::move(result),
                             handler = std::move(handler)] {
      --pending_;
      AllocScope scope(&completion_allocs_);
      handler(result);
    });
  }
  std::string name() const override { return "ScopedCompletion"; }
  size_t pending_queries() const override { return pending_; }

  const AllocCounters& completion_allocs() const {
    return completion_allocs_;
  }

 private:
  Network* network_;
  size_t pending_ = 0;
  AllocCounters completion_allocs_;
};

TEST(QueryDriverTest, ScoringAllocatesOutsideTheCompletingScope) {
  NetworkConfig config;
  config.node_count = 60;
  config.field = Rect::Field(80, 80);
  config.seed = 3;
  Network network(config);
  ScopedCompletionProtocol protocol(&network);
  QueryDriver driver(&network, /*gpsr=*/nullptr, &protocol,
                     MustParse("arrival@kind=fixed,rate=2;k@lo=5"),
                     /*seed=*/7, /*sink=*/0);
  const SloReport report = driver.Run(/*duration=*/5.0, /*drain=*/1.0);
  EXPECT_EQ(report.completed, report.issued);
  ASSERT_GT(report.issued, 0u);
  // Every query was scored against the oracle ...
  for (const WorkloadQueryRecord& r : driver.records()) {
    EXPECT_EQ(r.pre_accuracy, 1.0);
    EXPECT_GE(r.post_accuracy, 0.0);
  }
  // ... and none of that work was charged to the protocol's scope.
  EXPECT_EQ(protocol.completion_allocs().allocations, 0u);
  EXPECT_EQ(protocol.completion_allocs().bytes, 0u);
}

}  // namespace
}  // namespace diknn
