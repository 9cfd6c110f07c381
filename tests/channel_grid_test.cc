// Equivalence of the channel's spatial-grid fast path with the brute-force
// O(N) scan: same seeds must produce bit-identical traffic counters,
// energy totals, and experiment metrics, across static, mobile (fast RWP),
// group-mobility, lossy, churn-heavy and teleport/freeze scenarios. The
// drift-band rule the grid (and psim) judge receivers by is checked at
// its edges first.

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "faults/fault_plan.h"
#include "harness/experiment.h"
#include "net/channel.h"
#include "net/churn.h"
#include "net/drift_band.h"
#include "net/network.h"
#include "net/node.h"

namespace diknn {
namespace {

// --- The drift-band rule (net/drift_band.h). A node bucketed at `at`
// --- is now at `p`, at most D away. Whatever the verdict, it must never
// --- contradict the exact test SquaredDistance(p, origin) > r * r.

void ExpectVerdictHolds(const DriftBand& band, const Point& at,
                        const Point& p, const Point& origin, double r) {
  const bool out = SquaredDistance(p, origin) > r * r;
  const Reach reach = band.Classify(at, origin);
  if (reach == Reach::kOut) {
    EXPECT_TRUE(out) << "judged out but in range: at (" << at.x << ", "
                     << at.y << "), p (" << p.x << ", " << p.y << ")";
  }
  if (reach == Reach::kIn) {
    EXPECT_FALSE(out) << "judged in but out of range: at (" << at.x << ", "
                      << at.y << "), p (" << p.x << ", " << p.y << ")";
  }
}

double Nudge(double x, int ulps) {
  for (; ulps > 0; --ulps) x = std::nextafter(x, HUGE_VAL);
  for (; ulps < 0; ++ulps) x = std::nextafter(x, -HUGE_VAL);
  return x;
}

TEST(DriftBand, EdgesNeverContradictTheExactTest) {
  const double r = 20.0;
  for (const Point origin : {Point{0.0, 0.0}, Point{2571.3, 1834.7}}) {
    for (const double drift : {0.0, 0.25, 2.5, 10.0}) {
      const DriftBand band(r, drift);
      for (const double angle : {0.0, 0.3, 0.785398, 1.1, 1.5707963,
                                 2.5, 3.14159265, 4.0, 5.5}) {
        const Point u{std::cos(angle), std::sin(angle)};
        // The bucketed position sits at r - D or r + D from the origin,
        // give or take a few ulps, and the node has drifted exactly D
        // in the worst direction: straight out or straight in.
        for (const double edge : {r - drift, r + drift}) {
          for (int ulps = -4; ulps <= 4; ++ulps) {
            const double d = Nudge(edge, ulps);
            const Point at = origin + u * d;
            ExpectVerdictHolds(band, at, at + u * drift, origin, r);
            ExpectVerdictHolds(band, at, at - u * drift, origin, r);
          }
        }
      }
      // Far from the edges the band does decide.
      EXPECT_EQ(band.Classify(origin + Point{r + drift + 0.01, 0.0}, origin),
                Reach::kOut);
      EXPECT_EQ(band.Classify(origin + Point{r - drift - 0.01, 0.0}, origin),
                Reach::kIn);
      EXPECT_EQ(band.Classify(origin + Point{0.0, r}, origin),
                Reach::kCheck);
    }
  }
  // A drift wider than the range leaves nothing surely in.
  EXPECT_EQ(DriftBand(2.0, 5.0).Classify({0.0, 0.0}, {0.0, 0.0}),
            Reach::kCheck);
}

TEST(DriftBand, RandomDriftsNeverContradictTheExactTest) {
  Rng rng(2024);
  int decided = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double r = rng.Uniform(1.0, 50.0);
    // One draw in eight is a static field (D = 0).
    const double drift = (i & 7) == 0 ? 0.0 : rng.Uniform(0.0, 5.0);
    const Point origin = rng.PointInRect(Rect::Field(3000.0, 3000.0));
    const double reach = r + drift;
    const Point at = origin + Point{rng.Uniform(-1.2, 1.2) * reach,
                                    rng.Uniform(-1.2, 1.2) * reach};
    // Half the drifts are exactly D long: the worst case.
    const double angle = rng.Uniform(0.0, 6.283185307179586);
    const double length =
        (i & 1) == 0 ? drift : rng.Uniform(0.0, drift);
    const Point p = at + Point{std::cos(angle), std::sin(angle)} * length;
    const DriftBand band(r, drift);
    ExpectVerdictHolds(band, at, p, origin, r);
    if (band.Classify(at, origin) != Reach::kCheck) ++decided;
    if (HasFailure()) break;
  }
  // Most draws are decided without the exact position.
  EXPECT_GT(decided, 500000);
}

void ExpectSameStats(const ChannelStats& grid, const ChannelStats& brute) {
  EXPECT_EQ(grid.frames_sent, brute.frames_sent);
  EXPECT_EQ(grid.receptions_attempted, brute.receptions_attempted);
  EXPECT_EQ(grid.receptions_delivered, brute.receptions_delivered);
  EXPECT_EQ(grid.receptions_collided, brute.receptions_collided);
  EXPECT_EQ(grid.receptions_lost, brute.receptions_lost);
  // candidates_scanned intentionally differs: that is the optimization.
}

void ExpectSameMetrics(const RunMetrics& grid, const RunMetrics& brute) {
  EXPECT_EQ(grid.slo.ToJson(), brute.slo.ToJson());
  EXPECT_TRUE(grid.slo.latency == brute.slo.latency);  // Exact sum, buckets.
  EXPECT_EQ(grid.avg_pre_accuracy, brute.avg_pre_accuracy);
  EXPECT_EQ(grid.avg_post_accuracy, brute.avg_post_accuracy);
  EXPECT_EQ(grid.energy_joules, brute.energy_joules);
  EXPECT_EQ(grid.beacon_energy_joules, brute.beacon_energy_joules);
  EXPECT_EQ(grid.average_degree, brute.average_degree);
}

// Beacon-driven traffic over a full Network, optionally with churn,
// returning the channel counters plus the total energy spent.
struct SubstrateOutcome {
  ChannelStats stats;
  double energy = 0.0;
  double degree = 0.0;
};

SubstrateOutcome RunSubstrate(NetworkConfig config, bool grid,
                              bool with_churn) {
  config.use_spatial_grid = grid;
  Network net(config);
  std::unique_ptr<NodeChurn> churn;
  if (with_churn) {
    ChurnParams churn_params;
    churn_params.mean_up_time = 6.0;
    churn_params.mean_down_time = 2.0;
    churn_params.initial_dead_fraction = 0.1;
    churn = std::make_unique<NodeChurn>(&net.sim(), net.AllNodes(),
                                        churn_params,
                                        Rng(config.seed * 31 + 7));
    churn->Start();
  }
  net.Warmup(15.0);  // Beacon storms across many refresh intervals.
  SubstrateOutcome out;
  out.stats = net.channel().stats();
  out.energy = net.TotalEnergy();
  out.degree = net.AverageDegree();
  return out;
}

TEST(ChannelGridEquivalence, BeaconTrafficStaticField) {
  for (uint64_t seed : {1u, 7u}) {
    NetworkConfig config;
    config.node_count = 150;
    config.mobility = MobilityKind::kStatic;
    config.seed = seed;
    const auto grid = RunSubstrate(config, true, false);
    const auto brute = RunSubstrate(config, false, false);
    ExpectSameStats(grid.stats, brute.stats);
    EXPECT_EQ(grid.energy, brute.energy);
    EXPECT_EQ(grid.degree, brute.degree);
  }
}

TEST(ChannelGridEquivalence, BeaconTrafficFastMobileLossy) {
  for (uint64_t seed : {2u, 9u}) {
    NetworkConfig config;
    config.node_count = 150;
    config.mobility = MobilityKind::kRandomWaypoint;
    config.max_speed = 40.0;  // Far beyond the paper's mu_max: max drift.
    config.loss_rate = 0.05;  // Exercises per-receiver RNG draw ordering.
    config.seed = seed;
    const auto grid = RunSubstrate(config, true, false);
    const auto brute = RunSubstrate(config, false, false);
    ExpectSameStats(grid.stats, brute.stats);
    EXPECT_EQ(grid.energy, brute.energy);
    EXPECT_EQ(grid.degree, brute.degree);
  }
}

TEST(ChannelGridEquivalence, BeaconTrafficGroupMobilityWithChurn) {
  for (uint64_t seed : {3u, 11u}) {
    NetworkConfig config;
    config.node_count = 120;
    config.mobility = MobilityKind::kGroup;
    config.seed = seed;
    const auto grid = RunSubstrate(config, true, true);
    const auto brute = RunSubstrate(config, false, true);
    ExpectSameStats(grid.stats, brute.stats);
    EXPECT_EQ(grid.energy, brute.energy);
    EXPECT_EQ(grid.degree, brute.degree);
  }
}

TEST(ChannelGridEquivalence, FullExperimentMetricsBitIdentical) {
  for (uint64_t seed : {42u, 43u, 44u}) {
    ExperimentConfig config;
    config.network.node_count = 120;
    config.network.field = Rect::Field(90.0, 90.0);
    config.workload->k_lo = config.workload->k_hi = 15;
    config.duration = 6.0;
    config.drain = 4.0;

    config.network.use_spatial_grid = true;
    const RunMetrics grid = RunOnce(config, seed);
    config.network.use_spatial_grid = false;
    const RunMetrics brute = RunOnce(config, seed);
    ExpectSameMetrics(grid, brute);
  }
}

TEST(ChannelGridEquivalence, PinnedNodesMatchBruteForce) {
  // A teleport moves a node farther than the drift bound between two
  // refreshes, and so does the jump back when its pin is cleared: the
  // one path where the grid must rewrite a bucketed position between
  // refreshes. Fast mobility keeps the drift band wide.
  std::string error;
  const std::optional<FaultPlan> plan = FaultPlan::Parse(
      "teleport@t=2.2,node=5,x=10,y=80,dur=1.5;"
      "teleport@t=3.1,node=9,x=85,y=5;"
      "freeze@t=1.7,node=7,dur=2;"
      "teleport@t=4.05,node=0,x=45,y=45,dur=2.3;"
      "freeze@t=5.3,node=12",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  for (uint64_t seed : {42u, 43u}) {
    ExperimentConfig config;
    config.network.node_count = 120;
    config.network.field = Rect::Field(90.0, 90.0);
    config.network.mobility = MobilityKind::kRandomWaypoint;
    config.network.max_speed = 40.0;
    config.workload->k_lo = config.workload->k_hi = 15;
    config.duration = 8.0;
    config.drain = 4.0;
    config.faults = *plan;

    config.network.use_spatial_grid = true;
    const RunMetrics grid = RunOnce(config, seed);
    config.network.use_spatial_grid = false;
    const RunMetrics brute = RunOnce(config, seed);
    ExpectSameMetrics(grid, brute);
    EXPECT_EQ(grid.faults_injected, brute.faults_injected);
    EXPECT_GT(grid.faults_injected, 0u);
    ASSERT_EQ(grid.obs.counters.size(), brute.obs.counters.size());
    for (size_t i = 0; i < grid.obs.counters.size(); ++i) {
      const auto& g = grid.obs.counters[i];
      // Capacity growth differs between the two candidate sources.
      if (g.name.rfind("net.alloc", 0) == 0) continue;
      EXPECT_EQ(g.value, brute.obs.counters[i].value) << g.name;
    }
  }
}

TEST(ChannelGridEquivalence, GridScansFarFewerCandidates) {
  NetworkConfig config;
  config.node_count = 300;
  config.field = Rect::Field(140.0, 140.0);
  config.seed = 5;
  const auto grid = RunSubstrate(config, true, false);
  const auto brute = RunSubstrate(config, false, false);
  ExpectSameStats(grid.stats, brute.stats);
  // The brute path examines every node per frame; the grid only a 3x3
  // neighborhood. On this field that is at least a 2x reduction (and
  // grows with N at constant density).
  EXPECT_LT(grid.stats.candidates_scanned,
            brute.stats.candidates_scanned / 2);
}

// Reads every node's position each `period`, as the accuracy oracle and
// the tracer do, until the simulation stops.
void ReadPositionsEvery(Network* net, SimTime period) {
  net->sim().ScheduleAfter(period, [net, period] {
    for (int i = 0; i < net->size(); ++i) (void)net->node(i)->Position();
    ReadPositionsEvery(net, period);
  });
}

TEST(ChannelGrid, PositionReadsNeverMoveNodesBetweenCells) {
  // Only the periodic refresh moves a node between cells. A read that
  // starts a new movement leg must leave the grid as it was, so even the
  // candidate count of every frame is unchanged.
  NetworkConfig config;
  config.node_count = 150;
  config.mobility = MobilityKind::kRandomWaypoint;
  config.max_speed = 40.0;  // Many legs start between two refreshes.
  config.loss_rate = 0.05;
  config.seed = 2;
  Network plain(config);
  plain.Warmup(15.0);
  Network read(config);
  ReadPositionsEvery(&read, 0.05);
  read.Warmup(15.0);

  const ChannelStats& a = plain.channel().stats();
  const ChannelStats& b = read.channel().stats();
  ExpectSameStats(a, b);
  EXPECT_EQ(a.candidates_scanned, b.candidates_scanned);
  EXPECT_EQ(a.airtime_s, b.airtime_s);
  EXPECT_EQ(plain.TotalEnergy(), read.TotalEnergy());
}

TEST(ChannelGrid, CellSizeCoversRadioRangePlusDrift) {
  NetworkConfig config;
  config.node_count = 30;
  config.max_speed = 10.0;
  Network net(config);
  net.Warmup(1.0);  // Forces the first grid build.
  const Channel& chan = net.channel();
  // radio range 20 m + 10 m/s * refresh interval drift margin.
  EXPECT_GE(chan.grid_cell_size(), chan.params().radio_range_m);
  EXPECT_NEAR(chan.grid_cell_size(),
              chan.params().radio_range_m +
                  10.0 * chan.params().grid_refresh_interval_s,
              1e-9);
}

}  // namespace
}  // namespace diknn
