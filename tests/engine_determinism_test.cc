// Scheduler determinism: events fire in (time, push sequence) order —
// FIFO tie-breaks at equal timestamps included — so every golden-seed run
// is bit-identical from build to build and at any jobs count.
//
// Two anchors hold that contract. A same-timestamp storm is replayed on
// the Simulator and on a direct reference scheduler that states the
// ordering rule in a few lines. Golden outputs of a small paper run and
// a small workload run pin the end-to-end result.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "harness/experiment.h"
#include "sim/simulator.h"
#include "workload/workload_spec.h"

namespace diknn {
namespace {

// Reference scheduler: a flat vector of every event ever pushed, scanned
// for the live entry with the smallest (time, push sequence). O(n) per
// firing, and obviously correct.
class OracleScheduler {
 public:
  size_t ScheduleAt(SimTime t, std::function<void()> fn) {
    entries_.push_back(Entry{t, std::move(fn), true});
    return entries_.size() - 1;  // The push sequence doubles as the id.
  }
  size_t ScheduleAfter(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }
  void Cancel(size_t id) { entries_[id].live = false; }
  void Run() {
    for (;;) {
      size_t next = entries_.size();
      for (size_t i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].live) continue;
        // Strict '<': among equal times the earliest push wins.
        if (next == entries_.size() ||
            entries_[i].time < entries_[next].time) {
          next = i;
        }
      }
      if (next == entries_.size()) return;
      entries_[next].live = false;
      now_ = entries_[next].time;
      std::function<void()> fn = std::move(entries_[next].fn);
      fn();  // May push, so no reference into entries_ survives this.
    }
  }

 private:
  struct Entry {
    SimTime time;
    std::function<void()> fn;
    bool live;
  };
  std::vector<Entry> entries_;
  SimTime now_ = 0.0;
};

// A same-timestamp storm with cancels, reschedules, and times straddling
// the wheel horizon (forcing rollover and overflow migration). Returns
// the exact firing sequence.
template <typename Scheduler>
std::vector<int> RunStorm(Scheduler& sim) {
  Rng rng(2024);
  std::vector<int> order;
  std::vector<uint64_t> cancelable;

  // Bursts of events sharing one exact timestamp (FIFO tie-breaks), at
  // times from sub-millisecond to far beyond the ~1 s wheel horizon.
  int label = 0;
  for (int burst = 0; burst < 40; ++burst) {
    const SimTime t = rng.Uniform(0.0, 5.0);
    for (int i = 0; i < 5; ++i) {
      const int id = label++;
      const auto ev = sim.ScheduleAt(t, [&order, id] { order.push_back(id); });
      if (i % 3 == 1) cancelable.push_back(ev);
    }
  }
  // Far-future overflow events, some of which are cancelled.
  for (int i = 0; i < 20; ++i) {
    const int id = label++;
    const auto ev = sim.ScheduleAt(rng.Uniform(30.0, 400.0),
                                   [&order, id] { order.push_back(id); });
    if (i % 2 == 0) cancelable.push_back(ev);
  }
  // Events that schedule at their own timestamp (sorted-run insert) and
  // one wheel-horizon hop ahead (wheel re-entry after rollover).
  for (int i = 0; i < 10; ++i) {
    const int id = label++;
    sim.ScheduleAt(0.25 * i, [&sim, &order, id] {
      order.push_back(id);
      sim.ScheduleAfter(0.0, [&order, id] { order.push_back(10000 + id); });
      sim.ScheduleAfter(1.5, [&order, id] { order.push_back(20000 + id); });
    });
  }
  for (const auto ev : cancelable) sim.Cancel(ev);

  sim.Run();
  return order;
}

TEST(EngineDeterminismTest, StormFiresInTimeThenPushOrder) {
  Simulator sim;
  OracleScheduler oracle;
  const std::vector<int> fired = RunStorm(sim);
  const std::vector<int> expected = RunStorm(oracle);
  // 230 pushed up front, 90 of them cancelled, 20 pushed while running.
  ASSERT_EQ(expected.size(), 160u);
  EXPECT_EQ(fired, expected);
}

// --- Golden anchor: a small paper run and a small workload run at seed
// --- 42, recorded when the timer wheel still ran beside the binary heap
// --- it had been proven bit-identical to.

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.network.node_count = 70;
  config.network.field = Rect::Field(68.0, 68.0);
  config.k = 8;
  config.duration = 6.0;
  config.drain = 4.0;
  config.runs = 2;
  return config;
}

ExperimentConfig SmallWorkloadConfig() {
  ExperimentConfig config = SmallConfig();
  std::string error;
  config.workload = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=4;mix@knn=60,window=20,aggregate=20;"
      "k@lo=4,hi=10;deadline@s=1.5;admit@inflight=8,queue=4",
      &error);
  EXPECT_TRUE(config.workload.has_value()) << error;
  return config;
}

TEST(EngineDeterminismTest, PaperRunMatchesGoldenSeed42) {
  const RunMetrics m = RunOnce(SmallConfig(), 42);
  EXPECT_EQ(m.queries, 1);
  EXPECT_EQ(m.engine.events_fired, 7518u);
  // Exact equality on a hexfloat literal: bit-identity, not tolerance.
  EXPECT_EQ(m.energy_joules, 0x1.19b65f780aa89p-4);
}

TEST(EngineDeterminismTest, WorkloadRunMatchesGoldenSeed42) {
  const RunMetrics m = RunOnce(SmallWorkloadConfig(), 42);
  EXPECT_EQ(m.slo.issued, 27u);
  EXPECT_EQ(m.slo.completed, 3u);
}

// --- Jobs: a workload run's metrics are bit-identical at any --jobs.

void ExpectBitIdentical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  // EXPECT_EQ on doubles is exact equality — bit-identity, not tolerance.
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.avg_pre_accuracy, b.avg_pre_accuracy);
  EXPECT_EQ(a.avg_post_accuracy, b.avg_post_accuracy);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.beacon_energy_joules, b.beacon_energy_joules);
  EXPECT_EQ(a.average_degree, b.average_degree);
  EXPECT_EQ(a.engine.events_fired, b.engine.events_fired);
  // SloReport compared as serialized bytes.
  EXPECT_EQ(a.slo.ToJson(), b.slo.ToJson());
}

TEST(EngineDeterminismTest, WorkloadSloBitIdenticalAcrossJobs) {
  ExperimentConfig config = SmallWorkloadConfig();
  config.jobs = 1;
  const std::vector<RunMetrics> sequential = RunExperimentRuns(config);
  config.jobs = 4;
  const std::vector<RunMetrics> parallel = RunExperimentRuns(config);

  ASSERT_EQ(sequential.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  for (size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_GT(sequential[i].slo.issued, 0u);
    ExpectBitIdentical(sequential[i], parallel[i]);
  }
}

// The wheel must actually be exercising both tiers in an end-to-end run
// (otherwise the anchors above prove less than they claim).
TEST(EngineDeterminismTest, EndToEndRunUsesWheelAndOverflowTiers) {
  ExperimentConfig config = SmallConfig();
  config.runs = 1;
  const RunMetrics m = RunOnce(config, 42);
  EXPECT_GT(m.engine.wheel_scheduled, 0u);
  EXPECT_GT(m.engine.overflow_scheduled, 0u);  // Query timeouts et al.
  EXPECT_GT(m.engine.inline_callbacks, 0u);
  EXPECT_GT(m.engine.events_cancelled, 0u);
  // Resident footprint must stay within live + bounded cancelled refs.
  EXPECT_LE(m.engine.peak_resident,
            m.engine.peak_live + m.engine.events_cancelled);
}

}  // namespace
}  // namespace diknn
