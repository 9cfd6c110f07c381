// The parallel engine's determinism contract (docs/ENGINE.md):
//
//   1. `--shards 1` in the harness IS the serial engine — bit-identical
//      RunMetrics and SloReport, because it is the same code path. The
//      serial stack stays the determinism anchor.
//   2. Within psim, every partition-invariant traffic counter (frames,
//      CSMA outcomes, receptions, collisions, losses, neighbor updates)
//      is byte-equal across shard counts: the window-quantized PHY makes
//      the traffic a pure function of (seed, config).
//   3. Repeating a sharded run reproduces it exactly, and the
//      steady-state allocation gate (net.allocs == 0) holds on every
//      worker thread.
//
//   4. The query plane rides the same contract: with a workload spec the
//      SloReport, every qp.* invariant counter, and the filtered obs
//      snapshot (InvariantObsJson) are byte-equal across shard counts,
//      with node kills and per-hop losses in play.
//
// The sharded soaks here double as the TSan workload: run this binary
// under the tsan preset to sweep the barrier/mailbox protocol (query
// mailboxes and state migration included).

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "psim/engine.h"
#include "workload/workload_spec.h"

namespace diknn {
namespace {

// A field wide enough for 8 genuine strips: 560 m / 22.5 m cells ->
// nx = 25 columns >= 8 * kMinTileSpan.
PsimConfig WideConfig() {
  PsimConfig config;
  config.node_count = 1024;
  config.field = Rect::Field(560.0, 115.0);
  config.beacon_interval = 0.1;  // Dense traffic: real collisions.
  config.loss_rate = 0.05;       // Exercise the stateless loss draw.
  config.duration = 1.2;
  config.seed = 42;
  return config;
}

// The query-plane soak config: 200+ mixed-class queries over GPSR + DIKNN
// itineraries, with kills and per-hop losses.
PsimConfig QuerySoakConfig() {
  PsimConfig config;
  config.node_count = 1024;
  config.field = Rect::Field(560.0, 115.0);
  config.beacon_interval = 0.1;
  config.loss_rate = 0.03;  // Per-hop query losses -> retries.
  config.duration = 2.5;
  config.seed = 42;
  // Kills land mid-run on nodes that carry traffic (never the sink).
  config.node_kills = {{0.6, 101}, {0.9, 333}, {1.4, 512}, {1.4, 700}};
  std::string error;
  const auto spec = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=100;mix@knn=50,window=25,aggregate=25;"
      "k@lo=4,hi=12;deadline@s=1.0;admit@inflight=48,queue=32;"
      "cache@ttl=0.4;coalesce@window=0.15",
      &error);
  EXPECT_TRUE(spec.has_value()) << error;
  config.query.enabled = true;
  config.query.spec = *spec;
  config.query.sink = 0;
  config.query.warmup = 0.2;  // Let neighbor tables fill first.
  return config;
}

// --- Contract 2: partition-invariant counters across shard counts. ----

TEST(PsimDeterminismTest, TrafficCountersInvariantAcrossShardCounts) {
  PsimConfig config = WideConfig();
  config.shards = 1;
  const PsimResult anchor = RunPsim(config);

  // The run must actually exercise every counter the contract covers.
  ASSERT_GT(anchor.totals.frames_sent, 0u);
  ASSERT_GT(anchor.totals.csma_busy, 0u);
  ASSERT_GT(anchor.totals.receptions_delivered, 0u);
  ASSERT_GT(anchor.totals.receptions_collided, 0u);
  ASSERT_GT(anchor.totals.receptions_lost, 0u);
  ASSERT_GT(anchor.totals.neighbor_updates, 0u);
  EXPECT_GT(anchor.average_degree, 1.0);

  for (int shards : {2, 4, 8}) {
    config.shards = shards;
    PsimEngine engine(config);
    ASSERT_EQ(engine.shards(), shards) << "field too narrow for test";
    const PsimResult result = engine.Run();
    EXPECT_EQ(result.totals.InvariantCounters(),
              anchor.totals.InvariantCounters())
        << "traffic drifted at shards=" << shards;
    EXPECT_EQ(result.windows, anchor.windows);
    EXPECT_EQ(result.average_degree, anchor.average_degree);
    // Sharded runs exchange real traffic; the exchange is symmetric.
    EXPECT_GT(result.totals.boundary_frames, 0u);
    EXPECT_EQ(result.totals.boundary_frames, result.totals.foreign_frames);
    EXPECT_EQ(result.totals.migrations_out, result.totals.migrations_in);
    EXPECT_EQ(result.totals.audit_mismatches, 0u);
    EXPECT_TRUE(engine.OwnershipInvariantHolds());
  }
}

// --- Golden anchor: every other test here compares psim only with
// --- itself, so a receiver filter that dropped or added receivers the
// --- same way at every shard count would pass them all. These values of
// --- both soak configs at seed 42 were recorded before the filter read
// --- bucketed (sweep) positions instead of exact ones.

std::string Describe(const QueryPlaneStats::Invariants& q) {
  std::ostringstream out;
  out << "hops=" << q.hops << "/" << q.request_hops << "/" << q.qnode_hops
      << "/" << q.result_hops << " arrivals=" << q.home_arrivals
      << " sectors=" << q.sector_results << " replies=" << q.replies
      << " collections=" << q.collections << " retries=" << q.retries
      << " drops=" << q.drops_loss << "/" << q.drops_stuck << "/"
      << q.drops_dead << "/" << q.drops_ttl << " late=" << q.late_replies;
  return out.str();
}

std::string Describe(const PsimStats::Invariants& c) {
  std::ostringstream out;
  out << "frames=" << c.frames_sent << " csma=" << c.csma_attempts << "/"
      << c.csma_busy << "/" << c.csma_failures
      << " rx=" << c.receptions_attempted << "/" << c.receptions_delivered
      << "/" << c.receptions_collided << "/" << c.receptions_lost
      << " scanned=" << c.candidates_scanned
      << " updates=" << c.neighbor_updates << " qp=" << Describe(c.qp);
  return out.str();
}

TEST(PsimDeterminismTest, MatchesGoldenSeed42) {
  PsimConfig wide = WideConfig();
  wide.shards = 1;
  EXPECT_EQ(Describe(RunPsim(wide).totals.InvariantCounters()),
            "frames=12282 csma=13275/993/0 rx=230817/176989/44459/9369 "
            "scanned=770241 updates=176989 qp=hops=0/0/0/0 arrivals=0 "
            "sectors=0 replies=0 collections=0 retries=0 drops=0/0/0/0 "
            "late=0");

  PsimConfig soak = QuerySoakConfig();
  soak.shards = 1;
  const PsimResult served = RunPsim(soak);
  EXPECT_EQ(served.slo.ToJson(),
            "{\"issued\": 230, \"completed\": 195, \"deadline_missed\": 0, "
            "\"rejected\": 0, \"timed_out\": 35, \"peak_inflight\": 35, "
            "\"goodput_qps\": 84.7826, \"mean_s\": 0.0327882, "
            "\"p50_s\": 0.0306433, \"p95_s\": 0.0515357, "
            "\"p99_s\": 0.0553122, \"p999_s\": 0.0553122, \"miss_rate\": 0, "
            "\"reject_rate\": 0, \"timeout_rate\": 0.152174, "
            "\"cache_hits\": 2, \"cache_misses\": 110, "
            "\"cache_insertions\": 92, \"coalesced\": 0, \"fanned_out\": 0, "
            "\"shed\": 0}");
  EXPECT_EQ(Describe(served.totals.qp.InvariantCounters()),
            "hops=7914/2391/1712/3836 arrivals=225 sectors=1712 replies=193 "
            "collections=20558 retries=231 drops=1/0/29/0 late=0");
}

// --- Contract 3: exact repeatability and the allocation gate. ---------

TEST(PsimDeterminismTest, ShardedRunRepeatsExactly) {
  PsimConfig config = WideConfig();
  config.shards = 4;
  const PsimResult a = RunPsim(config);
  const PsimResult b = RunPsim(config);
  ASSERT_EQ(a.shard_stats.size(), b.shard_stats.size());
  for (size_t s = 0; s < a.shard_stats.size(); ++s) {
    // Per-shard, not just in aggregate: the full stats block including
    // the partition-dependent exchange counters must reproduce.
    EXPECT_EQ(a.shard_stats[s].InvariantCounters(),
              b.shard_stats[s].InvariantCounters());
    EXPECT_EQ(a.shard_stats[s].boundary_frames,
              b.shard_stats[s].boundary_frames);
    EXPECT_EQ(a.shard_stats[s].foreign_frames,
              b.shard_stats[s].foreign_frames);
    EXPECT_EQ(a.shard_stats[s].migrations_out,
              b.shard_stats[s].migrations_out);
    EXPECT_EQ(a.shard_stats[s].migrations_in,
              b.shard_stats[s].migrations_in);
  }
  EXPECT_EQ(a.engine.events_fired, b.engine.events_fired);
}

TEST(PsimDeterminismTest, SteadyStateAllocationFreeOnEveryShard) {
  PsimConfig config = WideConfig();
  config.shards = 4;
  const PsimResult result = RunPsim(config);
  for (size_t s = 0; s < result.shard_stats.size(); ++s) {
    EXPECT_EQ(result.shard_stats[s].steady_allocs, 0u)
        << "shard " << s << " allocated "
        << result.shard_stats[s].steady_alloc_bytes
        << " bytes in steady state";
  }
  // The gate lands on the same obs name scripts/check_all.sh asserts.
  EXPECT_EQ(result.obs.CounterValue("net.allocs"), 0u);
  EXPECT_EQ(result.obs.GaugeValue("psim.shards"), 4.0);
  EXPECT_EQ(result.obs.CounterValue("psim.frames_sent"),
            result.totals.frames_sent);

  // With the query plane and the flight recorder on, the sink, the cell
  // buckets and the recorder's series all grow mid-run; none of that
  // growth may be charged to a shard. The recorder samples from the
  // barrier's completion step, on whichever worker arrives last.
  PsimConfig served = QuerySoakConfig();
  served.shards = 4;
  served.ts = TimeSeriesOptions{0.25, 256};
  const PsimResult recorded = RunPsim(served);
  ASSERT_GT(recorded.ts.series().size(), 0u);
  for (size_t s = 0; s < recorded.shard_stats.size(); ++s) {
    EXPECT_EQ(recorded.shard_stats[s].steady_allocs, 0u)
        << "shard " << s << " allocated "
        << recorded.shard_stats[s].steady_alloc_bytes
        << " bytes with the recorder on";
  }
  EXPECT_EQ(recorded.obs.CounterValue("net.allocs"), 0u);
}

// --- Contract 1: the harness's --shards 1 is byte-equal to the serial
// --- path, SloReport and obs snapshot included. ----------------------

ExperimentConfig SerialAnchorConfig() {
  ExperimentConfig config;
  config.network.node_count = 70;
  config.network.field = Rect::Field(68.0, 68.0);
  config.duration = 6.0;
  config.drain = 4.0;
  config.runs = 1;
  std::string error;
  config.workload = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=4;mix@knn=70,window=30;"
      "k@lo=4,hi=10;deadline@s=1.5;admit@inflight=8,queue=4",
      &error);
  EXPECT_TRUE(config.workload.has_value()) << error;
  return config;
}

TEST(PsimDeterminismTest, ShardsOneIsTheSerialEngineBitForBit) {
  const ExperimentConfig serial = SerialAnchorConfig();
  ExperimentConfig one = SerialAnchorConfig();
  one.shards = 1;
  const RunMetrics a = RunOnce(serial, 42);
  const RunMetrics b = RunOnce(one, 42);
  ASSERT_GT(a.slo.issued, 0u);
  EXPECT_EQ(a.avg_pre_accuracy, b.avg_pre_accuracy);
  EXPECT_EQ(a.avg_post_accuracy, b.avg_post_accuracy);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.average_degree, b.average_degree);
  EXPECT_EQ(a.slo.ToJson(), b.slo.ToJson());
  EXPECT_TRUE(a.slo.latency == b.slo.latency);  // Exact sum, buckets.
  EXPECT_EQ(a.obs.ToJson(), b.obs.ToJson());
}

// --- Contract 4: query-plane soak — 200+ mixed-class queries over GPSR
// --- + DIKNN itineraries, with kills and losses, across shard counts.

TEST(PsimDeterminismTest, QueryPlaneInvariantAcrossShardCounts) {
  PsimConfig config = QuerySoakConfig();
  config.shards = 1;
  const PsimResult anchor = RunPsim(config);

  // The soak must genuinely exercise the plane: hundreds of mixed-class
  // queries, itinerary traversals, merges, replies, and lossy retries.
  ASSERT_GE(anchor.slo.issued, 200u);
  ASSERT_GT(anchor.slo.completed, 0u);
  ASSERT_GT(anchor.totals.qp.home_arrivals, 0u);
  ASSERT_GT(anchor.totals.qp.qnode_hops, 0u);
  ASSERT_GT(anchor.totals.qp.sector_results, 0u);
  ASSERT_GT(anchor.totals.qp.replies, 0u);
  ASSERT_GT(anchor.totals.qp.retries, 0u);
  const std::string anchor_slo = anchor.slo.ToJson();
  const std::string anchor_obs = InvariantObsJson(anchor.obs);

  for (int shards : {2, 4, 8}) {
    config.shards = shards;
    PsimEngine engine(config);
    ASSERT_EQ(engine.shards(), shards) << "field too narrow for test";
    const PsimResult result = engine.Run();
    EXPECT_EQ(result.slo.ToJson(), anchor_slo) << "shards=" << shards;
    EXPECT_EQ(InvariantObsJson(result.obs), anchor_obs)
        << "shards=" << shards;
    EXPECT_EQ(result.totals.qp.InvariantCounters(),
              anchor.totals.qp.InvariantCounters())
        << "query traffic drifted at shards=" << shards;
    // Query frames really cross shard mailboxes, and the exchange
    // balances (drained remails re-enter the boundary tally).
    EXPECT_GT(result.totals.qp.boundary_frames, 0u);
    EXPECT_EQ(result.totals.qp.boundary_frames,
              result.totals.qp.foreign_frames);
    // The allocation gate holds with query traffic in the mailboxes.
    for (size_t s = 0; s < result.shard_stats.size(); ++s) {
      EXPECT_EQ(result.shard_stats[s].steady_allocs, 0u)
          << "shard " << s << " allocated with queries enabled";
    }
    EXPECT_TRUE(engine.OwnershipInvariantHolds());
  }
}

// --- Contract 4, flight-recorder extension: the deterministic series
// --- sampled at window boundaries are byte-equal across shard counts.

TEST(PsimDeterminismTest, FlightRecordingInvariantAcrossShardCounts) {
  PsimConfig config = QuerySoakConfig();
  config.ts = TimeSeriesOptions{0.25, 256};
  config.shards = 1;
  const PsimResult anchor = RunPsim(config);

  // The recording must carry real data, not just empty series.
  ASSERT_FALSE(anchor.ts.series().empty());
  const TimeSeries* issued = anchor.ts.Find("workload.issued_per_s");
  ASSERT_NE(issued, nullptr);
  ASSERT_GT(issued->size(), 2u);
  EXPECT_GT(issued->Max(), 0.0);
  const std::string anchor_json = anchor.ts.DeterministicJson();

  for (int shards : {2, 4, 8}) {
    config.shards = shards;
    PsimEngine engine(config);
    ASSERT_EQ(engine.shards(), shards) << "field too narrow for test";
    const PsimResult result = engine.Run();
    EXPECT_EQ(result.ts.DeterministicJson(), anchor_json)
        << "recording drifted at shards=" << shards;
    // Each shard contributes its own diagnostic occupancy series; those
    // are partition-dependent by design and live outside the contract.
    size_t shard_series = 0;
    for (const TimeSeries& s : result.ts.series()) {
      if (s.diagnostic() && s.name().rfind("psim.shard", 0) == 0) {
        ++shard_series;
      }
    }
    EXPECT_GT(shard_series, 0u) << "shards=" << shards;
  }
}

TEST(PsimDeterminismTest, QueryPlaneShardedRunRepeatsExactly) {
  PsimConfig config = QuerySoakConfig();
  config.shards = 4;
  const PsimResult a = RunPsim(config);
  const PsimResult b = RunPsim(config);
  EXPECT_EQ(a.slo.ToJson(), b.slo.ToJson());
  EXPECT_EQ(a.obs.ToJson(), b.obs.ToJson());  // Full snapshot this time.
  ASSERT_EQ(a.shard_stats.size(), b.shard_stats.size());
  for (size_t s = 0; s < a.shard_stats.size(); ++s) {
    EXPECT_EQ(a.shard_stats[s].qp.InvariantCounters(),
              b.shard_stats[s].qp.InvariantCounters());
    EXPECT_EQ(a.shard_stats[s].qp.boundary_frames,
              b.shard_stats[s].qp.boundary_frames);
    EXPECT_EQ(a.shard_stats[s].qp.state_migrations,
              b.shard_stats[s].qp.state_migrations);
  }
}

// --- Harness integration: --shards > 1 runs the substrate and reports
// --- through the standard RunMetrics/obs plumbing. -------------------

TEST(PsimDeterminismTest, HarnessShardedRunReportsSubstrateMetrics) {
  ExperimentConfig config;
  config.network.node_count = 512;
  config.network.field = Rect::Field(560.0, 115.0);
  config.duration = 0.8;
  config.warmup = 0.0;
  config.runs = 1;
  config.shards = 4;
  const RunMetrics m = RunOnce(config, 42);
  EXPECT_TRUE(m.slo.Consistent());  // The default spec's query plane ran.
  EXPECT_EQ(m.shards_requested, 4);
  EXPECT_EQ(m.shards_effective, 4);
  EXPECT_GT(m.average_degree, 0.0);
  EXPECT_GT(m.obs.CounterValue("psim.frames_sent"), 0u);
  EXPECT_GT(m.obs.CounterValue("psim.boundary_frames"), 0u);
  EXPECT_EQ(m.obs.CounterValue("psim.audit_mismatches"), 0u);
  EXPECT_EQ(m.obs.CounterValue("net.allocs"), 0u);
  EXPECT_EQ(m.obs.GaugeValue("psim.shards"), 4.0);
  EXPECT_GT(m.engine.events_fired, 0u);
  // Identical harness runs reproduce bit-for-bit, obs included.
  const RunMetrics again = RunOnce(config, 42);
  EXPECT_EQ(m.obs.ToJson(), again.obs.ToJson());
  EXPECT_EQ(m.average_degree, again.average_degree);
}

}  // namespace
}  // namespace diknn
