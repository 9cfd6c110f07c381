#include "baselines/peertree.h"

#include <gtest/gtest.h>

#include "knn/query.h"

namespace diknn {
namespace {

struct Rig {
  explicit Rig(NetworkConfig config, PeerTreeParams params = {})
      : net(WithHeads(std::move(config), params)),
        gpsr(&net),
        protocol(&net, &gpsr, params) {
    gpsr.Install();
    protocol.Install();
    net.Warmup(3.0);  // Beacons + first registration round.
  }

  static NetworkConfig WithHeads(NetworkConfig config,
                                 const PeerTreeParams& params) {
    config.infrastructure_positions =
        PeerTree::ClusterheadPositions(config.field, params.grid_dim);
    return config;
  }

  // Runs until the query completes (checking in small slices), so that
  // ground truth sampled right after the call reflects completion time.
  KnnResult RunQuery(NodeId sink, Point q, int k, double horizon = 12.0) {
    KnnResult out;
    bool done = false;
    protocol.IssueQuery(sink, q, k, [&](const KnnResult& r) {
      out = r;
      done = true;
    });
    const SimTime deadline = net.sim().Now() + horizon;
    while (!done && net.sim().Now() < deadline) {
      net.sim().RunUntil(net.sim().Now() + 0.25);
    }
    EXPECT_TRUE(done) << "query never completed";
    return out;
  }

  Network net;
  GpsrRouting gpsr;
  PeerTree protocol;
};

NetworkConfig DefaultConfig(uint64_t seed = 7) {
  NetworkConfig config;
  config.seed = seed;
  config.static_node_count = 1;
  return config;
}

TEST(PeerTreeTest, ClusterheadPositionsFormGrid) {
  const auto heads =
      PeerTree::ClusterheadPositions(Rect::Field(100, 100), 5);
  ASSERT_EQ(heads.size(), 25u);
  EXPECT_EQ(heads[0], Point(10, 10));    // Row-major from the min corner.
  EXPECT_EQ(heads[4], Point(90, 10));
  EXPECT_EQ(heads[24], Point(90, 90));
}

TEST(PeerTreeTest, NodesRegisterWithHeads) {
  Rig rig(DefaultConfig());
  EXPECT_GT(rig.protocol.stats().registrations_sent, 50u);
}

TEST(PeerTreeTest, AnswersQueryOnStaticNetwork) {
  NetworkConfig config = DefaultConfig();
  config.mobility = MobilityKind::kStatic;
  Rig rig(config);
  const Point q{60, 60};
  const auto truth = rig.net.TrueKnn(q, 10);
  const KnnResult result = rig.RunQuery(0, q, 10);
  EXPECT_GE(Accuracy(result.CandidateIds(), truth), 0.7);
}

TEST(PeerTreeTest, QueryFlowsThroughHierarchy) {
  Rig rig(DefaultConfig());
  // A query point in a different cell than the sink forces an upward
  // forward to the root and a downward forward to the covering head.
  rig.RunQuery(0, {10, 105}, 10);
  EXPECT_GE(rig.protocol.stats().hierarchy_forwards, 1u);
  EXPECT_GT(rig.protocol.stats().notifications_sent, 0u);
}

TEST(PeerTreeTest, ProbesOtherCellsForLargeK) {
  Rig rig(DefaultConfig());
  rig.RunQuery(0, {60, 60}, 40);
  // 40 > one cell's population (~8), so the coordinator probed others.
  EXPECT_GT(rig.protocol.stats().cells_probed, 2u);
}

TEST(PeerTreeTest, ClusterheadsNeverReturnedAsCandidates) {
  Rig rig(DefaultConfig());
  const KnnResult result = rig.RunQuery(0, {57, 57}, 20);
  const int mobile = rig.net.config().node_count;
  for (const KnnCandidate& c : result.candidates) {
    EXPECT_LT(c.id, mobile) << "clusterhead leaked into the result";
  }
}

TEST(PeerTreeTest, MobilityCausesMissedNotifications) {
  NetworkConfig config = DefaultConfig();
  config.max_speed = 30.0;
  Rig rig(config);
  uint64_t missed = 0;
  for (int i = 0; i < 5; ++i) {
    rig.RunQuery(0, {30.0 + 12 * i, 55}, 20, 9.0);
  }
  missed = rig.protocol.stats().notifications_missed;
  // At 30 m/s the recorded positions go stale fast; some notifications
  // must strand (this is Peer-tree's Fig. 9 failure mode).
  EXPECT_GT(missed, 0u);
}

TEST(PeerTreeTest, EvictionRemovesSilentNodes) {
  Rig rig(DefaultConfig());
  // Kill half the nodes and let eviction sweeps run.
  for (int i = 1; i < 100; ++i) rig.net.node(i)->set_alive(false);
  rig.net.sim().RunUntil(rig.net.sim().Now() + 10.0);
  EXPECT_GT(rig.protocol.stats().evictions, 20u);
}

TEST(PeerTreeTest, MaintenanceEnergyIsSeparated) {
  Rig rig(DefaultConfig());
  EXPECT_GT(rig.net.TotalEnergy(EnergyCategory::kMaintenance), 0.0);
  // No query issued yet: query energy stays zero.
  EXPECT_DOUBLE_EQ(rig.net.TotalEnergy(EnergyCategory::kQuery), 0.0);
}

}  // namespace
}  // namespace diknn
