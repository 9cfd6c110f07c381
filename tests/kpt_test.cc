#include "baselines/kpt.h"

#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "knn/query.h"

namespace diknn {
namespace {

struct Rig {
  explicit Rig(NetworkConfig config, KptParams params = {})
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
  KptKnnb protocol;
};

NetworkConfig DefaultConfig(uint64_t seed = 7) {
  NetworkConfig config;
  config.seed = seed;
  config.static_node_count = 1;
  return config;
}

TEST(KptTest, AccurateOnStaticNetwork) {
  NetworkConfig config = DefaultConfig();
  config.mobility = MobilityKind::kStatic;
  Rig rig(config);
  const Point q{60, 60};
  const auto truth = rig.net.TrueKnn(q, 10);
  const KnnResult result = rig.RunQuery(0, q, 10);
  EXPECT_FALSE(result.timed_out);
  EXPECT_GE(Accuracy(result.CandidateIds(), truth), 0.8);
}

TEST(KptTest, BuildsTreeInsideBoundary) {
  Rig rig(DefaultConfig());
  rig.RunQuery(0, {60, 60}, 20);
  const KptStats& stats = rig.protocol.stats();
  EXPECT_GT(stats.tree_joins, 5u);
  EXPECT_GT(stats.build_broadcasts, stats.tree_joins / 2);
  EXPECT_GT(stats.aggregates_sent, 0u);
}

TEST(KptTest, CandidatesSortedAndDeduplicated) {
  Rig rig(DefaultConfig());
  const Point q{50, 50};
  const KnnResult result = rig.RunQuery(0, q, 20);
  std::unordered_set<NodeId> ids;
  double prev = -1;
  for (const KnnCandidate& c : result.candidates) {
    EXPECT_TRUE(ids.insert(c.id).second);
    const double d = Distance(c.position, q);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST(KptTest, MobilityCausesRepairs) {
  NetworkConfig config = DefaultConfig();
  config.max_speed = 25.0;
  Rig rig(config);
  for (int i = 0; i < 4; ++i) {
    rig.RunQuery(0, {40.0 + 10 * i, 60}, 30, 8.0);
  }
  // At 25 m/s some parent links must have broken during aggregation.
  EXPECT_GT(rig.protocol.stats().parent_losses, 0u);
  EXPECT_GT(rig.protocol.stats().repairs, 0u);
}

TEST(KptTest, SequentialQueriesComplete) {
  Rig rig(DefaultConfig());
  Rng rng(4);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    const KnnResult r =
        rig.RunQuery(0, rng.PointInRect(rig.net.config().field), 10, 10.0);
    if (!r.timed_out) ++completed;
  }
  EXPECT_GE(completed, 3);
}

TEST(KptTest, OverlappingQueriesKeepTheirTrees) {
  // Six queries in flight at once: issuing a query must not tear down
  // the aggregation trees of earlier queries that are still collecting.
  NetworkConfig config = DefaultConfig();
  config.mobility = MobilityKind::kStatic;
  Rig rig(config);
  std::vector<KnnResult> results;
  for (int i = 0; i < 6; ++i) {
    rig.protocol.IssueQuery(0, {40.0 + 8 * i, 60}, 10,
                            [&](const KnnResult& r) { results.push_back(r); });
    rig.net.sim().RunUntil(rig.net.sim().Now() + 0.01);
  }
  rig.net.sim().RunUntil(rig.net.sim().Now() + 12.0);
  ASSERT_EQ(results.size(), 6u);
  for (const KnnResult& r : results) {
    EXPECT_FALSE(r.timed_out) << "query " << r.query_id;
  }
}

TEST(KptTest, RespectsKBudget) {
  Rig rig(DefaultConfig());
  const KnnResult result = rig.RunQuery(0, {60, 60}, 5);
  EXPECT_LE(result.candidates.size(), 5u);
}

TEST(KptTest, ConservativeBoundaryFloodsFarWider) {
  // The original KPT boundary R = k * MHD makes the tree flood (nearly)
  // the whole network — the paper's Section 5.1 justification for
  // swapping KNNB in.
  NetworkConfig config = DefaultConfig();
  Rig knnb_rig(config);
  KptParams conservative;
  conservative.conservative_boundary = true;
  Rig flood_rig(config, conservative);

  knnb_rig.RunQuery(0, {60, 60}, 20);
  flood_rig.RunQuery(0, {60, 60}, 20);
  EXPECT_GT(flood_rig.protocol.stats().tree_joins,
            2 * knnb_rig.protocol.stats().tree_joins);
}

TEST(KptTest, StatsBalance) {
  Rig rig(DefaultConfig());
  rig.RunQuery(0, {55, 55}, 15);
  const KptStats& stats = rig.protocol.stats();
  EXPECT_EQ(stats.queries_issued, 1u);
  EXPECT_EQ(stats.queries_completed + stats.timeouts, 1u);
}

}  // namespace
}  // namespace diknn
