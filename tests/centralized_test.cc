#include "baselines/centralized.h"

#include <gtest/gtest.h>

#include <vector>

#include "knn/query.h"

namespace diknn {
namespace {

struct Rig {
  explicit Rig(NetworkConfig config, CentralizedParams params = {})
      : net(config), gpsr(&net), protocol(&net, &gpsr, params) {
    gpsr.Install();
    protocol.Install();
    // Warm up for two full update rounds: reports funnel toward one
    // station and a fraction of each round is lost to the contention
    // there, so one round leaves visible index gaps.
    net.Warmup(2.0 * params.update_interval + 1.0);
  }

  KnnResult RunQuery(NodeId sink, Point q, int k, double horizon = 10.0) {
    KnnResult out;
    bool done = false;
    protocol.IssueQuery(sink, q, k, [&](const KnnResult& r) {
      out = r;
      done = true;
    });
    const SimTime deadline = net.sim().Now() + horizon;
    while (!done && net.sim().Now() < deadline) {
      net.sim().RunUntil(net.sim().Now() + 0.1);
    }
    EXPECT_TRUE(done) << "query never completed";
    return out;
  }

  Network net;
  GpsrRouting gpsr;
  CentralizedIndex protocol;
};

NetworkConfig DefaultConfig() {
  NetworkConfig config;
  config.seed = 7;
  config.static_node_count = 1;  // Node 0 = the central station.
  return config;
}

TEST(CentralizedTest, IndexFillsFromUpdates) {
  Rig rig(DefaultConfig());
  EXPECT_GT(rig.protocol.IndexedNodes(), 150u);
  EXPECT_GT(rig.protocol.stats().updates_received, 150u);
}

TEST(CentralizedTest, LocalQueryIsNearInstant) {
  NetworkConfig config = DefaultConfig();
  config.mobility = MobilityKind::kStatic;
  Rig rig(config);
  const Point q{60, 60};
  const KnnResult result = rig.RunQuery(0, q, 10);
  EXPECT_LT(result.Latency(), 0.05);
  // The update funnel toward the single station loses some reports to
  // congestion (the centralized bottleneck the paper criticizes), so the
  // index never quite reaches 100% coverage even on a static field.
  EXPECT_GE(Accuracy(result.CandidateIds(), rig.net.TrueKnn(q, 10)), 0.7);
}

TEST(CentralizedTest, StationAnswersItsExactNearestRecords) {
  // On a static field every record is exact, so once every sensor has
  // reported, a local query returns the true KNN of the nodes the
  // station indexes (all but itself), in rank order.
  NetworkConfig config = DefaultConfig();
  config.mobility = MobilityKind::kStatic;
  Rig rig(config);
  const size_t sensors = rig.net.size() - 1;
  while (rig.protocol.IndexedNodes() < sensors &&
         rig.net.sim().Now() < 120.0) {
    rig.net.sim().RunUntil(rig.net.sim().Now() + 1.0);
  }
  ASSERT_EQ(rig.protocol.IndexedNodes(), sensors);

  const int k = 10;
  for (const Point q : {Point{20, 20}, Point{60, 60}, Point{100, 30}}) {
    std::vector<NodeId> truth = rig.net.TrueKnn(q, k + 1);
    std::erase(truth, NodeId{0});  // The station holds no record of itself.
    truth.resize(k);
    EXPECT_EQ(rig.RunQuery(0, q, k).CandidateIds(), truth);
  }
}

TEST(CentralizedTest, AccuracyLimitedByUpdateStaleness) {
  // High mobility + slow updates: the index answers from old positions.
  // (Both rates stay below the funnel's saturation point; pushing the
  // "fast" rate under ~4 s would collapse deliveries instead — see the
  // update_interval doc in centralized.h.)
  NetworkConfig slow_net = DefaultConfig();
  slow_net.max_speed = 25.0;
  CentralizedParams slow;
  slow.update_interval = 12.0;
  Rig slow_rig(slow_net, slow);
  CentralizedParams fast;
  fast.update_interval = 4.0;
  Rig fast_rig(slow_net, fast);

  double slow_acc = 0, fast_acc = 0;
  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    const Point q = rng.PointInRect(slow_net.field);
    {
      const KnnResult r = slow_rig.RunQuery(0, q, 15);
      slow_acc +=
          Accuracy(r.CandidateIds(), slow_rig.net.TrueKnn(q, 15));
    }
    {
      const KnnResult r = fast_rig.RunQuery(0, q, 15);
      fast_acc +=
          Accuracy(r.CandidateIds(), fast_rig.net.TrueKnn(q, 15));
    }
  }
  EXPECT_GT(fast_acc, slow_acc);
}

TEST(CentralizedTest, UpdateTrafficCostsMaintenanceEnergy) {
  Rig rig(DefaultConfig());
  const double before = rig.net.TotalEnergy(EnergyCategory::kMaintenance);
  rig.net.sim().RunUntil(rig.net.sim().Now() + 10.0);
  const double spent =
      rig.net.TotalEnergy(EnergyCategory::kMaintenance) - before;
  // ~200 nodes x 5 multi-hop reports over 10 s: substantial, and the
  // core argument for in-network processing.
  EXPECT_GT(spent, 0.5);
}

TEST(CentralizedTest, RemoteSinkGetsAnswer) {
  // A second stationary station (e.g. a gateway) queries the index
  // remotely: the query travels to the center and the answer back.
  NetworkConfig config = DefaultConfig();
  config.static_node_count = 2;  // Nodes 0 (center) and 1 (gateway).
  Rig rig(config);
  const Point q{60, 60};
  const KnnResult result = rig.RunQuery(1, q, 10);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.candidates.size(), 10u);
  EXPECT_GT(result.Latency(), 0.0);  // Real round trip this time.
}

TEST(CentralizedTest, StatsBalance) {
  Rig rig(DefaultConfig());
  rig.RunQuery(0, {50, 50}, 5);
  rig.RunQuery(0, {70, 70}, 5);
  const CentralizedStats& stats = rig.protocol.stats();
  EXPECT_EQ(stats.queries_issued, 2u);
  EXPECT_EQ(stats.queries_completed + stats.timeouts, 2u);
  EXPECT_GE(stats.updates_sent, stats.updates_received);
}

}  // namespace
}  // namespace diknn
