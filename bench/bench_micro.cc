// Microbenchmarks (google-benchmark) for the library's hot paths:
// KNNB estimation, itinerary geometry, Gabriel planarization, the
// discrete-event queue, flat-map churn, neighbor-table refresh, the frame
// pool, and ground-truth KNN scans.
//
// Before the benchmark loop runs, main() executes the steady-state
// allocation gate: two identically-seeded DIKNN simulations whose
// allocation counters are reset at the midpoint of each run. The gate
// asserts (a) the packet plane performs zero transient allocations per
// frame once warm (net counter), and (b) the per-query KNN churn is
// amortized-flat — a second run on warm thread-local pools never
// allocates more than the first (knn counter). Counter semantics
// (capacity vs transient attribution) are documented in
// docs/PACKET_PLANE.md. DIKNN_MICRO_SMOKE=1 shrinks the benchmark loop
// to a seconds-long CI pass; the gate always runs at full strength.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/flat_map.h"
#include "core/rng.h"
#include "harness/experiment.h"
#include "knn/itinerary.h"
#include "knn/knnb.h"
#include "net/neighbor_table.h"
#include "net/packet_pool.h"
#include "psim/engine.h"
#include "routing/planarize.h"
#include "sim/simulator.h"

namespace diknn {
namespace {

std::vector<RouteHopInfo> MakeList(int hops) {
  std::vector<RouteHopInfo> list;
  for (int i = 0; i < hops; ++i) {
    list.push_back({{i * 15.0, 0.0}, 12});
  }
  return list;
}

void BM_Knnb(benchmark::State& state) {
  const auto list = MakeList(static_cast<int>(state.range(0)));
  const Point q{state.range(0) * 15.0, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Knnb(list, q, 20.0, 40, 200.0));
  }
}
BENCHMARK(BM_Knnb)->Arg(8)->Arg(32)->Arg(128);

void BM_ItineraryConstruction(benchmark::State& state) {
  ItineraryParams params;
  params.q = {50, 50};
  params.radius = static_cast<double>(state.range(0));
  params.num_sectors = 8;
  params.width = DefaultItineraryWidth(20.0);
  for (auto _ : state) {
    Itinerary it(params);
    benchmark::DoNotOptimize(it.TotalLength());
  }
}
BENCHMARK(BM_ItineraryConstruction)->Arg(40)->Arg(100)->Arg(400);

void BM_ItineraryPointAt(benchmark::State& state) {
  ItineraryParams params;
  params.q = {50, 50};
  params.radius = 100.0;
  params.num_sectors = 8;
  params.width = DefaultItineraryWidth(20.0);
  const Itinerary it(params);
  double s = 0.0;
  for (auto _ : state) {
    s += 7.3;
    if (s > it.TotalLength()) s = 0.0;
    benchmark::DoNotOptimize(it.PointAt(s));
  }
}
BENCHMARK(BM_ItineraryPointAt);

void BM_GabrielNeighbors(benchmark::State& state) {
  Rng rng(42);
  std::vector<NeighborEntry> neighbors;
  for (int i = 0; i < state.range(0); ++i) {
    NeighborEntry e;
    e.id = i;
    e.position = rng.PointInDisk({0, 0}, 20.0);
    neighbors.push_back(e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(GabrielNeighbors({0, 0}, neighbors));
  }
}
BENCHMARK(BM_GabrielNeighbors)->Arg(10)->Arg(20)->Arg(40);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Rng rng(3);
    int fired = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.ScheduleAt(rng.NextDouble() * 100.0, [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

void BM_LuneArea(benchmark::State& state) {
  double d = 0.0;
  for (auto _ : state) {
    d += 0.37;
    if (d > 40.0) d = 0.1;
    benchmark::DoNotOptimize(LuneArea(20.0, d));
  }
}
BENCHMARK(BM_LuneArea);

// Per-query container churn: the insert/find/erase cycle every query's
// dedup set and collection window performs, on a table that has reached
// its steady-state capacity. Compare against the node-based standard
// container it replaced.
void BM_FlatMapChurn(benchmark::State& state) {
  FlatMap<uint64_t, int> map;
  const uint64_t window = static_cast<uint64_t>(state.range(0));
  uint64_t next = 0;
  // Warm to steady-state occupancy so the loop measures reuse, not growth.
  for (; next < window; ++next) map.InsertOrAssign(next, static_cast<int>(next));
  for (auto _ : state) {
    map.InsertOrAssign(next, static_cast<int>(next));
    benchmark::DoNotOptimize(map.find(next - window / 2));
    map.erase(next - window);
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapChurn)->Arg(16)->Arg(256)->Arg(4096);

void BM_StdUnorderedChurn(benchmark::State& state) {
  std::unordered_map<uint64_t, int> map;
  const uint64_t window = static_cast<uint64_t>(state.range(0));
  uint64_t next = 0;
  for (; next < window; ++next) map[next] = static_cast<int>(next);
  for (auto _ : state) {
    map[next] = static_cast<int>(next);
    benchmark::DoNotOptimize(map.find(next - window / 2));
    map.erase(next - window);
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdUnorderedChurn)->Arg(16)->Arg(256)->Arg(4096);

// Neighbor-table refresh, the per-reception cost of a heard beacon: a
// table of n neighbors, each beaconing once per lap in a fixed shuffled
// order, so every Update scans the id lane to a different depth. n = 20
// is psim's mean degree on the 100k-node substrate, 32 a serial table at
// Section 5.1 defaults, 136 a serial table that never expires.
void BM_NeighborTableUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(42);
  std::vector<NodeId> order;
  NeighborTable table(1.5);
  for (int i = 0; i < n; ++i) {
    const NodeId id = 7 * i + 3;
    order.push_back(id);
    table.Update(id, {static_cast<double>(i), 0.0}, 0.0);
  }
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
  size_t next = 0;
  SimTime now = 0.0;
  for (auto _ : state) {
    table.Update(order[next], {now, 1.0}, now);
    next = next + 1 < order.size() ? next + 1 : 0;
    now += 1e-3;
    benchmark::DoNotOptimize(&table);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborTableUpdate)->Arg(20)->Arg(32)->Arg(136);

// Frame-pool hot path: the acquire/release cycle the channel performs
// once per transmitted frame, with a bounded set of frames in flight.
// After the first lap the slab never grows, so the loop is
// allocation-free.
struct PooledFrame {
  std::vector<uint64_t> flags;
  void Reuse() { flags.clear(); }
};

void BM_FramePoolCycle(benchmark::State& state) {
  FramePool<PooledFrame> pool;
  const size_t live = static_cast<size_t>(state.range(0));
  std::vector<FramePool<PooledFrame>::Handle> held;
  held.reserve(live);
  for (auto _ : state) {
    held.push_back(pool.Acquire());
    if (held.size() == live) {
      for (const auto h : held) pool.Release(h);
      held.clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FramePoolCycle)->Arg(8)->Arg(64);

// ---------------------------------------------------------------------------
// Steady-state allocation gate (runs before the benchmark loop).

struct GateWindow {
  uint64_t net_allocs = 0;   ///< Transient packet-plane allocations.
  uint64_t knn_allocs = 0;   ///< Transient per-query protocol allocations.
  uint64_t frames = 0;       ///< Frames sent in the measured half.
  int completions = 0;
};

// One seeded DIKNN run; both counters are reset at the midpoint so only
// the steady-state (post-warm-up, post-capacity-growth) half is measured.
GateWindow RunGateOnce(uint64_t seed) {
  constexpr int kK = 20;
  constexpr double kQueryIntervalMean = 0.5;
  ExperimentConfig config;
  config.network.node_count = 150;
  config.network.field = Rect::Field(100, 100);
  config.duration = 20.0;

  ProtocolStack stack(config, seed);
  Network& net = stack.network();
  net.Warmup(config.warmup);

  Rng rng(seed);
  GateWindow w;
  const SimTime deadline = net.sim().Now() + config.duration;
  std::function<void()> issue_next = [&]() {
    const SimTime next =
        net.sim().Now() + rng.Exponential(kQueryIntervalMean);
    if (next >= deadline) return;
    net.sim().ScheduleAt(next, [&]() {
      const Point q = rng.PointInRect(config.network.field);
      stack.protocol().IssueQuery(0, q, kK,
                                  [&](const KnnResult&) { ++w.completions; });
      issue_next();
    });
  };
  issue_next();

  uint64_t frames_baseline = 0;
  net.sim().ScheduleAt(net.sim().Now() + config.duration * 0.5, [&]() {
    net.channel().net_allocs().Reset();
    stack.protocol().ResetAllocCounters();
    frames_baseline = net.channel().stats().frames_sent;
  });
  net.sim().RunUntil(deadline + config.drain);

  w.net_allocs = net.channel().net_allocs().allocations;
  w.knn_allocs = stack.protocol().alloc_counters().allocations;
  w.frames = net.channel().stats().frames_sent - frames_baseline;
  return w;
}

// Returns 0 on pass. The two runs share one process, so the second run's
// thread-local pools start warm: its knn churn must not exceed the first
// run's (amortized-flat), and the net counter must be exactly zero in
// both (transient-free per frame).
int RunAllocationGate() {
  std::printf("allocation gate: two midpoint-reset DIKNN runs...\n");
  const GateWindow first = RunGateOnce(42);
  const GateWindow second = RunGateOnce(42);
  std::printf(
      "  run1: net=%llu knn=%llu frames=%llu completions=%d\n"
      "  run2: net=%llu knn=%llu frames=%llu completions=%d\n",
      static_cast<unsigned long long>(first.net_allocs),
      static_cast<unsigned long long>(first.knn_allocs),
      static_cast<unsigned long long>(first.frames), first.completions,
      static_cast<unsigned long long>(second.net_allocs),
      static_cast<unsigned long long>(second.knn_allocs),
      static_cast<unsigned long long>(second.frames), second.completions);
  int failures = 0;
  if (first.frames < 1000 || first.completions < 5) {
    std::fprintf(stderr,
                 "allocation gate: scenario too quiet to be meaningful\n");
    ++failures;
  }
  if (first.net_allocs != 0 || second.net_allocs != 0) {
    std::fprintf(stderr,
                 "allocation gate FAILED: packet plane made transient "
                 "allocations in steady state (want 0 per frame)\n");
    ++failures;
  }
  if (second.knn_allocs > first.knn_allocs) {
    std::fprintf(stderr,
                 "allocation gate FAILED: knn churn grew on warm pools "
                 "(%llu -> %llu); per-query allocations are not "
                 "amortized-flat\n",
                 static_cast<unsigned long long>(first.knn_allocs),
                 static_cast<unsigned long long>(second.knn_allocs));
    ++failures;
  }
  if (failures == 0) std::printf("allocation gate: PASS\n");
  return failures;
}

// Sharded-engine extension of the gate: with the query plane enabled and
// frames genuinely crossing shard mailboxes, every worker must still be
// allocation-free in steady state (second half of the run) — the
// migration scratch, qslot rings, and mailbox rings all pre-reserve.
int RunShardedAllocationGate() {
  std::printf("sharded allocation gate: query plane at 4 shards...\n");
  PsimConfig config;
  config.node_count = 768;
  config.field = Rect::Field(560.0, 115.0);
  config.beacon_interval = 0.1;
  config.loss_rate = 0.02;
  config.duration = 1.2;
  config.seed = 42;
  config.shards = 4;
  config.query.enabled = true;
  std::string error;
  const auto spec = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=120;mix@knn=50,window=25,aggregate=25;"
      "k@lo=4,hi=12;deadline@s=1.0;admit@inflight=48,queue=32;"
      "cache@ttl=0.4;coalesce@window=0.15",
      &error);
  if (!spec.has_value()) {
    std::fprintf(stderr, "sharded allocation gate: bad spec: %s\n",
                 error.c_str());
    return 1;
  }
  config.query.spec = *spec;
  config.query.warmup = 0.2;
  config.query.horizon = config.duration;

  const PsimResult r = RunPsim(config);
  int failures = 0;
  if (r.totals.qp.boundary_frames == 0 || r.slo.completed == 0) {
    std::fprintf(stderr,
                 "sharded allocation gate: scenario too quiet (no "
                 "cross-shard query traffic)\n");
    ++failures;
  }
  for (size_t s = 0; s < r.shard_stats.size(); ++s) {
    if (r.shard_stats[s].steady_allocs != 0) {
      std::fprintf(stderr,
                   "sharded allocation gate FAILED: shard %zu made %llu "
                   "steady-state allocations with query traffic (want 0 "
                   "per worker)\n",
                   s,
                   static_cast<unsigned long long>(
                       r.shard_stats[s].steady_allocs));
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf(
        "sharded allocation gate: PASS (%llu cross-shard query frames, "
        "%llu queries, 0 allocs/worker)\n",
        static_cast<unsigned long long>(r.totals.qp.boundary_frames),
        static_cast<unsigned long long>(r.slo.completed));
  }
  return failures;
}

}  // namespace
}  // namespace diknn

int main(int argc, char** argv) {
  if (diknn::RunAllocationGate() != 0) return 1;
  if (diknn::RunShardedAllocationGate() != 0) return 1;

  // DIKNN_MICRO_SMOKE=1: keep the benchmark loop to a seconds-long pass
  // (the gate above is the check; the numbers are not meaningful).
  std::vector<char*> args(argv, argv + argc);
  std::string smoke_min_time = "--benchmark_min_time=0.01";
  const char* smoke = std::getenv("DIKNN_MICRO_SMOKE");
  if (smoke != nullptr && smoke[0] == '1') {
    args.push_back(smoke_min_time.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
