#include "baselines/flooding.h"

#include <gtest/gtest.h>

#include "knn/query.h"

namespace diknn {
namespace {

struct Rig {
  explicit Rig(NetworkConfig config, FloodingParams params = {})
      : net(config), gpsr(&net), protocol(&net, &gpsr, params) {
    gpsr.Install();
    protocol.Install();
    net.Warmup(2.0);
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
  Flooding protocol;
};

NetworkConfig DefaultConfig() {
  NetworkConfig config;
  config.seed = 7;
  config.static_node_count = 1;
  return config;
}

TEST(FloodingTest, AnswersQuery) {
  NetworkConfig config = DefaultConfig();
  config.mobility = MobilityKind::kStatic;
  Rig rig(config);
  const Point q{60, 60};
  const auto truth = rig.net.TrueKnn(q, 10);
  const KnnResult result = rig.RunQuery(0, q, 10);
  EXPECT_GE(Accuracy(result.CandidateIds(), truth), 0.5);
  EXPECT_LE(result.candidates.size(), 10u);
}

TEST(FloodingTest, EveryInBoundaryNodeRebroadcastsOnce) {
  Rig rig(DefaultConfig());
  rig.RunQuery(0, {60, 60}, 20);
  const FloodingStats& stats = rig.protocol.stats();
  // One rebroadcast per flooded node (plus the home node's initial one):
  // replies and rebroadcasts track each other.
  EXPECT_GT(stats.rebroadcasts, 5u);
  EXPECT_GE(stats.rebroadcasts + 1, stats.replies_sent);
  EXPECT_GT(stats.replies_sent, 5u);
}

TEST(FloodingTest, IndependentRoutingPathsAreExpensive) {
  // The Section 3.3 argument for itineraries: flooding's per-node
  // response routing costs far more energy than DIKNN on the same query.
  NetworkConfig config = DefaultConfig();
  Rig rig(config);
  const double before = rig.net.TotalEnergy(EnergyCategory::kQuery);
  rig.RunQuery(0, {60, 60}, 20, 8.0);
  const double flood_energy =
      rig.net.TotalEnergy(EnergyCategory::kQuery) - before;
  EXPECT_GT(flood_energy, 0.05);  // Far above a handful of unicasts.
}

TEST(FloodingTest, CompletionIsWindowBound) {
  Rig rig(DefaultConfig());
  const KnnResult result = rig.RunQuery(0, {60, 60}, 10);
  // Completion fires at the collection window (+1 s scheduling margin).
  EXPECT_GE(result.Latency(), 3.0);
  EXPECT_LE(result.Latency(), 4.5);
}

}  // namespace
}  // namespace diknn
