// Scheduler determinism: events fire in (time, push sequence) order —
// FIFO tie-breaks at equal timestamps included — so every golden-seed run
// is bit-identical from build to build and at any jobs count.
//
// Two anchors hold that contract. A same-timestamp storm is replayed on
// the Simulator and on a direct reference scheduler that states the
// ordering rule in a few lines. Golden outputs of a small paper run and
// a small workload run pin the end-to-end result, golden fingerprints
// of window and aggregate workloads pin the itinerary sweep engines, and
// golden paper runs pin the four baseline engines.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "faults/fault_injector.h"
#include "harness/experiment.h"
#include "obs/tracer.h"
#include "sim/simulator.h"
#include "workload/query_driver.h"
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
  config.workload->k_lo = config.workload->k_hi = 8;
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
  EXPECT_EQ(m.slo.issued, 1u);
  EXPECT_EQ(m.engine.events_fired, 7518u);
  // Exact equality on a hexfloat literal: bit-identity, not tolerance.
  EXPECT_EQ(m.energy_joules, 0x1.19b65f780aa89p-4);
}

TEST(EngineDeterminismTest, WorkloadRunMatchesGoldenSeed42) {
  const RunMetrics m = RunOnce(SmallWorkloadConfig(), 42);
  EXPECT_EQ(m.slo.issued, 27u);
  EXPECT_EQ(m.slo.completed, 3u);
}

// --- Golden anchors for the itinerary sweeps (window, KNNB window and
// --- aggregate queries): a QueryDriver on a §5.1-default stack at seed
// --- 42, clean and under a fault plan that kills nodes, drops ACKs and
// --- duplicates frames. Each run is pinned as one fingerprint: the
// --- SloReport JSON, scheduler and channel totals, query energy as a
// --- hexfloat, the sweep engines' counters, and the count and byte sum
// --- of every frame type in the channel's frame log (GeoRouted frames
// --- carry the sweeps' bootstrap and result messages).

constexpr char kWindowMix[] = "mix@knnb=1,window=1";
constexpr char kAggregateMix[] = "mix@aggregate=1";
constexpr char kSweepFaults[] =
    "kill@t=5,count=10;ackloss@t=3,dur=10,prob=0.3;dup@t=2,dur=20,prob=0.3";

void AppendStats(const char* label, const WindowQueryStats& s,
                 std::ostringstream* out) {
  *out << "\n" << label << ": issued=" << s.queries_issued
       << " completed=" << s.queries_completed << " timeouts=" << s.timeouts
       << " qnode_hops=" << s.qnode_hops << " replies=" << s.replies
       << " voids=" << s.voids << " stale_drops=" << s.stale_drops
       << " collections_cancelled=" << s.collections_cancelled;
}

std::string SweepRunFingerprint(const std::string& mix, const char* faults,
                                bool log_frames = true) {
  ExperimentConfig config;
  config.duration = 20.0;
  std::string error;
  const std::optional<WorkloadSpec> spec =
      WorkloadSpec::Parse(mix + ";k@lo=8,hi=16;window@side=30", &error);
  EXPECT_TRUE(spec.has_value()) << error;
  const uint64_t seed = 42;
  ProtocolStack stack(config, seed);
  Network& net = stack.network();
  Tracer frame_log(0.0, seed);
  if (log_frames) net.channel().set_tracer(&frame_log);
  net.Warmup(config.warmup);
  std::unique_ptr<FaultInjector> injector;
  if (faults != nullptr) {
    const std::optional<FaultPlan> plan = FaultPlan::Parse(faults, &error);
    EXPECT_TRUE(plan.has_value()) << error;
    // Seeded like RunOnce's injector.
    injector = std::make_unique<FaultInjector>(
        &net, *plan, seed * 0x9e3779b97f4a7c15ULL + 101);
    injector->Arm();
  }
  QueryDriver driver(&net, &stack.gpsr(), &stack.protocol(), *spec,
                     WorkloadSeed(seed));
  const SloReport slo = driver.Run(config.duration, config.drain);

  std::ostringstream out;
  out << slo.ToJson()
      << "\nevents_fired=" << net.sim().engine_stats().events_fired
      << " frames_sent=" << net.channel().stats().frames_sent
      << " query_energy=" << std::hexfloat
      << net.TotalEnergy(EnergyCategory::kQuery) << std::dec;
  if (driver.window_engine() != nullptr) {
    AppendStats("window", driver.window_engine()->stats(), &out);
  }
  if (driver.aggregate_engine() != nullptr) {
    AppendStats("aggregate", driver.aggregate_engine()->stats(), &out);
  }
  std::map<std::string, std::pair<uint64_t, uint64_t>> frames;
  for (const FrameRecord& f : frame_log.frames()) {
    ++frames[f.type].first;
    frames[f.type].second += f.bytes;
  }
  for (const auto& [type, count_bytes] : frames) {
    out << "\n" << type << " " << count_bytes.first << " "
        << count_bytes.second;
  }
  return out.str();
}

TEST(EngineDeterminismTest, WindowSweepsMatchGoldenSeed42) {
  EXPECT_EQ(SweepRunFingerprint(kWindowMix, nullptr),
      "{\"issued\": 24, \"completed\": 24, \"deadline_missed\": 0, "
      "\"rejected\": 0, \"timed_out\": 0, \"peak_inflight\": 4, "
      "\"goodput_qps\": 1.2, \"mean_s\": 1.68189, "
      "\"p50_s\": 1.51227, \"p95_s\": 3.02454, \"p99_s\": 4.27735, "
      "\"p999_s\": 4.27735, \"miss_rate\": 0, \"reject_rate\": 0, "
      "\"timeout_rate\": 0, \"cache_hits\": 0, \"cache_misses\": 0, "
      "\"cache_insertions\": 0, \"coalesced\": 0, \"fanned_out\": 0, "
      "\"shed\": 0}\n"
      "events_fired=61707 frames_sent=15655 query_energy=0x1.e191b447f0aedp+1\n"
      "window: issued=24 completed=24 timeouts=0 qnode_hops=124 replies=413 "
      "voids=0 stale_drops=0 collections_cancelled=0\n"
      "Beacon 12586 289478\n"
      "GeoRouted 1200 191196\n"
      "MacAck 958 10538\n"
      "WindowForward 324 77136\n"
      "WindowProbe 124 5084\n"
      "WindowReply 463 9723");
}

TEST(EngineDeterminismTest, WindowSweepsUnderFaultsMatchGoldenSeed42) {
  EXPECT_EQ(SweepRunFingerprint(kWindowMix, kSweepFaults),
      "{\"issued\": 24, \"completed\": 24, \"deadline_missed\": 0, "
      "\"rejected\": 0, \"timed_out\": 0, \"peak_inflight\": 4, "
      "\"goodput_qps\": 1.2, \"mean_s\": 1.59314, "
      "\"p50_s\": 1.38676, \"p95_s\": 3.29828, \"p99_s\": 3.29828, "
      "\"p999_s\": 3.29828, \"miss_rate\": 0, \"reject_rate\": 0, "
      "\"timeout_rate\": 0, \"cache_hits\": 0, \"cache_misses\": 0, "
      "\"cache_insertions\": 0, \"coalesced\": 0, \"fanned_out\": 0, "
      "\"shed\": 0}\n"
      "events_fired=66617 frames_sent=18267 query_energy=0x1.baf5d7073858bp+1\n"
      "window: issued=24 completed=24 timeouts=0 qnode_hops=124 replies=397 "
      "voids=0 stale_drops=0 collections_cancelled=0\n"
      "Beacon 14403 331269\n"
      "GeoRouted 1428 177276\n"
      "MacAck 1281 14091\n"
      "WindowForward 343 86633\n"
      "WindowProbe 158 6478\n"
      "WindowReply 654 13734");
}

TEST(EngineDeterminismTest, AggregateSweepsMatchGoldenSeed42) {
  EXPECT_EQ(SweepRunFingerprint(kAggregateMix, nullptr),
      "{\"issued\": 18, \"completed\": 18, \"deadline_missed\": 0, "
      "\"rejected\": 0, \"timed_out\": 0, \"peak_inflight\": 4, "
      "\"goodput_qps\": 0.9, \"mean_s\": 1.10826, "
      "\"p50_s\": 1.06934, \"p95_s\": 1.76164, \"p99_s\": 1.76164, "
      "\"p999_s\": 1.76164, \"miss_rate\": 0, \"reject_rate\": 0, "
      "\"timeout_rate\": 0, \"cache_hits\": 0, \"cache_misses\": 0, "
      "\"cache_insertions\": 0, \"coalesced\": 0, \"fanned_out\": 0, "
      "\"shed\": 0}\n"
      "events_fired=55094 frames_sent=14147 "
      "query_energy=0x1.2a248bfb76586p-1\n"
      "aggregate: issued=18 completed=18 timeouts=0 qnode_hops=85 "
      "replies=260 voids=2 stale_drops=0 collections_cancelled=0\n"
      "AggForward 166 9130\n"
      "AggProbe 85 3485\n"
      "AggReply 295 5015\n"
      "Beacon 12600 289800\n"
      "GeoRouted 461 28639\n"
      "MacAck 540 5940");
}

TEST(EngineDeterminismTest, AggregateSweepsUnderFaultsMatchGoldenSeed42) {
  EXPECT_EQ(SweepRunFingerprint(kAggregateMix, kSweepFaults),
      "{\"issued\": 18, \"completed\": 18, \"deadline_missed\": 0, "
      "\"rejected\": 0, \"timed_out\": 0, \"peak_inflight\": 4, "
      "\"goodput_qps\": 0.9, \"mean_s\": 1.08708, "
      "\"p50_s\": 1.16612, \"p95_s\": 1.38676, \"p99_s\": 1.38676, "
      "\"p999_s\": 1.38676, \"miss_rate\": 0, \"reject_rate\": 0, "
      "\"timeout_rate\": 0, \"cache_hits\": 0, \"cache_misses\": 0, "
      "\"cache_insertions\": 0, \"coalesced\": 0, \"fanned_out\": 0, "
      "\"shed\": 0}\n"
      "events_fired=59188 frames_sent=16318 "
      "query_energy=0x1.4c1edf69319c7p-1\n"
      "aggregate: issued=18 completed=18 timeouts=0 qnode_hops=83 "
      "replies=252 voids=5 stale_drops=0 collections_cancelled=0\n"
      "AggForward 217 11935\n"
      "AggProbe 107 4387\n"
      "AggReply 415 7055\n"
      "Beacon 14393 331039\n"
      "GeoRouted 515 32039\n"
      "MacAck 671 7381");
}

// --- Golden anchors for the four baseline engines (KPT, Peer-tree,
// --- Flooding, Centralized): a §5.1-default paper run at seed 42 with a
// --- query every second on average, clean and under the sweep anchors'
// --- fault plan. Each run is pinned as its query and timeout counts, the
// --- scheduler's fired and cancelled events, and the energy as a
// --- hexfloat.

std::string BaselineRunFingerprint(ProtocolKind protocol,
                                   const char* faults) {
  ExperimentConfig config;
  config.protocol = protocol;
  config.duration = 30.0;
  config.workload->rate = 1.0;
  config.runs = 1;
  if (faults != nullptr) {
    std::string error;
    const std::optional<FaultPlan> plan = FaultPlan::Parse(faults, &error);
    EXPECT_TRUE(plan.has_value()) << error;
    config.faults = *plan;
  }
  const RunMetrics m = RunOnce(config, 42);
  std::ostringstream out;
  out << "queries=" << m.slo.issued << " timeouts=" << m.slo.timed_out
      << " events_fired=" << m.engine.events_fired
      << " events_cancelled=" << m.engine.events_cancelled
      << " energy=" << std::hexfloat << m.energy_joules;
  return out.str();
}

TEST(EngineDeterminismTest, KptMatchesGoldenSeed42) {
  EXPECT_EQ(BaselineRunFingerprint(ProtocolKind::kKptKnnb, nullptr),
            "queries=31 timeouts=15 "
            "events_fired=539848 events_cancelled=14323 "
            "energy=0x1.d1ffce2135b1bp+5");
  EXPECT_EQ(BaselineRunFingerprint(ProtocolKind::kKptKnnb, kSweepFaults),
            "queries=31 timeouts=6 "
            "events_fired=281892 events_cancelled=7155 "
            "energy=0x1.f074da478982ap+4");
}

TEST(EngineDeterminismTest, PeerTreeMatchesGoldenSeed42) {
  EXPECT_EQ(BaselineRunFingerprint(ProtocolKind::kPeerTree, nullptr),
            "queries=31 timeouts=22 "
            "events_fired=371303 events_cancelled=11467 "
            "energy=0x1.5ce90e4bf31cep+5");
  EXPECT_EQ(BaselineRunFingerprint(ProtocolKind::kPeerTree, kSweepFaults),
            "queries=31 timeouts=20 "
            "events_fired=405912 events_cancelled=11478 "
            "energy=0x1.6b21d9af086a2p+5");
}

TEST(EngineDeterminismTest, FloodingMatchesGoldenSeed42) {
  EXPECT_EQ(BaselineRunFingerprint(ProtocolKind::kFlooding, nullptr),
            "queries=31 timeouts=0 "
            "events_fired=467468 events_cancelled=7925 "
            "energy=0x1.3b5e280933837p+5");
  EXPECT_EQ(BaselineRunFingerprint(ProtocolKind::kFlooding, kSweepFaults),
            "queries=31 timeouts=0 "
            "events_fired=620611 events_cancelled=12656 "
            "energy=0x1.97463a414445cp+5");
}

TEST(EngineDeterminismTest, CentralizedMatchesGoldenSeed42) {
  EXPECT_EQ(BaselineRunFingerprint(ProtocolKind::kCentralized, nullptr),
            "queries=31 timeouts=0 "
            "events_fired=139176 events_cancelled=4825 "
            "energy=0x1.57dfbd954c67cp+3");
  EXPECT_EQ(BaselineRunFingerprint(ProtocolKind::kCentralized, kSweepFaults),
            "queries=31 timeouts=0 "
            "events_fired=145937 events_cancelled=4607 "
            "energy=0x1.67e91d0f8565p+3");
}

// The anchors above read the channel's frame log; attaching it must not
// change a single simulated bit.
TEST(EngineDeterminismTest, FrameLogDoesNotPerturbSweeps) {
  const std::string mix = "mix@knnb=1,window=1,aggregate=1";
  const std::string unlogged = SweepRunFingerprint(mix, nullptr, false);
  const std::string logged = SweepRunFingerprint(mix, nullptr);
  EXPECT_EQ(logged.substr(0, unlogged.size()), unlogged);
  EXPECT_GT(logged.size(), unlogged.size());
}

// --- Jobs: a workload run's metrics are bit-identical at any --jobs.

void ExpectBitIdentical(const RunMetrics& a, const RunMetrics& b) {
  // EXPECT_EQ on doubles is exact equality — bit-identity, not tolerance.
  EXPECT_EQ(a.avg_pre_accuracy, b.avg_pre_accuracy);
  EXPECT_EQ(a.avg_post_accuracy, b.avg_post_accuracy);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.beacon_energy_joules, b.beacon_energy_joules);
  EXPECT_EQ(a.average_degree, b.average_degree);
  EXPECT_EQ(a.engine.events_fired, b.engine.events_fired);
  // SloReport compared as serialized bytes.
  EXPECT_EQ(a.slo.ToJson(), b.slo.ToJson());
  EXPECT_TRUE(a.slo.latency == b.slo.latency);  // Exact sum, buckets.
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
