#include "knn/aggregate.h"

#include <cstdint>
#include <optional>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "faults/fault_injector.h"
#include "knn/window.h"
#include "obs/tracer.h"

namespace diknn {
namespace {

TEST(AggregateValueTest, FoldTracksMoments) {
  AggregateValue v;
  v.Fold(2.0);
  v.Fold(4.0);
  v.Fold(9.0);
  EXPECT_EQ(v.count, 3u);
  EXPECT_DOUBLE_EQ(v.sum, 15.0);
  EXPECT_DOUBLE_EQ(v.min, 2.0);
  EXPECT_DOUBLE_EQ(v.max, 9.0);
  EXPECT_DOUBLE_EQ(v.Mean(), 5.0);
}

TEST(AggregateValueTest, MergeIsDecomposable) {
  AggregateValue all, a, b;
  for (double x : {1.0, 5.0, 3.0}) {
    all.Fold(x);
    a.Fold(x);
  }
  for (double x : {7.0, 2.0}) {
    all.Fold(x);
    b.Fold(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count, all.count);
  EXPECT_DOUBLE_EQ(a.sum, all.sum);
  EXPECT_DOUBLE_EQ(a.min, all.min);
  EXPECT_DOUBLE_EQ(a.max, all.max);
}

TEST(AggregateValueTest, EmptyMean) {
  AggregateValue v;
  EXPECT_DOUBLE_EQ(v.Mean(), 0.0);
}

struct Rig {
  explicit Rig(uint64_t seed = 7)
      : net(Config(seed)),
        gpsr(&net),
        field(2.0,
              {FieldSource{{60, 60}, {0, 0}, /*amplitude=*/10.0,
                           /*sigma=*/25.0}}),
        protocol(&net, &gpsr, &field) {
    gpsr.Install();
    protocol.Install();
    net.Warmup(2.0);
  }

  static NetworkConfig Config(uint64_t seed) {
    NetworkConfig config;
    config.seed = seed;
    config.static_node_count = 1;
    config.mobility = MobilityKind::kStatic;
    return config;
  }

  AggregateResult RunQuery(const Rect& region, double horizon = 20.0) {
    AggregateResult out;
    bool done = false;
    protocol.IssueQuery(0, region, [&](const AggregateResult& r) {
      out = r;
      done = true;
    });
    const SimTime deadline = net.sim().Now() + horizon;
    while (!done && net.sim().Now() < deadline) {
      net.sim().RunUntil(net.sim().Now() + 0.25);
    }
    EXPECT_TRUE(done) << "aggregate query never completed";
    return out;
  }

  uint64_t NodesIn(const Rect& region) {
    uint64_t n = 0;
    for (int i = 0; i < net.size(); ++i) {
      if (region.Contains(net.node(i)->Position())) ++n;
    }
    return n;
  }

  Network net;
  GpsrRouting gpsr;
  SensorField field;
  ItineraryAggregateQuery protocol;
};

TEST(AggregateQueryTest, CountsNodesInRegion) {
  Rig rig;
  const Rect region{{40, 40}, {80, 80}};
  int truth = 0;
  for (int i = 0; i < rig.net.size(); ++i) {
    if (region.Contains(rig.net.node(i)->Position())) ++truth;
  }
  const AggregateResult result = rig.RunQuery(region);
  EXPECT_FALSE(result.timed_out);
  ASSERT_GT(truth, 5);
  // The sweep collects nearly everyone (static network).
  EXPECT_GE(static_cast<double>(result.value.count) / truth, 0.85);
  EXPECT_LE(result.value.count, static_cast<uint64_t>(truth));
}

TEST(AggregateQueryTest, MeanTracksGroundTruth) {
  Rig rig;
  const Rect region{{40, 40}, {80, 80}};
  // Ground-truth mean over the in-region nodes.
  double sum = 0;
  int count = 0;
  for (int i = 0; i < rig.net.size(); ++i) {
    const Point p = rig.net.node(i)->Position();
    if (region.Contains(p)) {
      sum += rig.field.Value(p, 2.0);
      ++count;
    }
  }
  const AggregateResult result = rig.RunQuery(region);
  ASSERT_GT(result.value.count, 0u);
  EXPECT_NEAR(result.value.Mean(), sum / count, 1.0);
}

TEST(AggregateQueryTest, MinMaxBracketBaselineAndPeak) {
  Rig rig;
  const AggregateResult result = rig.RunQuery({{30, 30}, {90, 90}});
  // The region contains the source center (value ~12) and far corners
  // (value ~ baseline 2 + tail). Nodes land near, not exactly on, the
  // corners, so allow slack on the minimum.
  EXPECT_GT(result.value.max, 9.0);
  EXPECT_LT(result.value.min, 6.0);
  EXPECT_GE(result.value.min, 1.9);
}

TEST(AggregateQueryTest, ForwardBytesStayConstant) {
  // The decomposable aggregate keeps the hop-to-hop state constant-size
  // regardless of how many nodes contributed (the fusion property),
  // while a window sweep over the same region carries a growing list.
  Rig rig;
  Tracer frame_log(0.0);
  rig.net.channel().set_tracer(&frame_log);
  ItineraryWindowQuery window(&rig.net, &rig.gpsr);
  window.Install();
  const Rect region{{20, 20}, {100, 100}};
  const AggregateResult result = rig.RunQuery(region);
  bool done = false;
  window.IssueQuery(0, region, [&](const WindowResult&) { done = true; });
  while (!done) rig.net.sim().RunUntil(rig.net.sim().Now() + 0.25);
  ASSERT_GT(result.value.count, 20u);

  std::set<uint32_t> agg_sizes, window_sizes;
  for (const FrameRecord& f : frame_log.frames()) {
    const std::string type = f.type;
    if (type == "AggForward") agg_sizes.insert(f.bytes);
    if (type == "WindowForward") window_sizes.insert(f.bytes);
  }
  EXPECT_EQ(agg_sizes.size(), 1u);
  ASSERT_GT(window_sizes.size(), 1u);
  EXPECT_GT(*window_sizes.rbegin(), *agg_sizes.begin());
}

// A D-node whose reply arrived but whose MAC ACKs were all lost cannot
// tell that from a lost reply. The window sweep re-offers it (the sink
// dedups by id); a count has no id to dedup by, so the aggregate sweep
// must not, or the node is counted twice.
TEST(AggregateQueryTest, AckLossNeverOverCounts) {
  const Rect region{{30, 30}, {90, 90}};
  const std::optional<FaultPlan> plan =
      FaultPlan::Parse("ackloss@t=0,dur=100,prob=0.5");
  ASSERT_TRUE(plan.has_value());
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rig rig(seed);
    FaultInjector faults(&rig.net, *plan, seed);
    faults.Arm();
    const AggregateResult result = rig.RunQuery(region);
    EXPECT_LE(result.value.count, rig.NodesIn(region)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace diknn
