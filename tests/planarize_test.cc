#include "routing/planarize.h"

#include <gtest/gtest.h>

#include "core/rng.h"

namespace diknn {
namespace {

NeighborEntry N(NodeId id, double x, double y) {
  NeighborEntry e;
  e.id = id;
  e.position = {x, y};
  return e;
}

TEST(GabrielTest, KeepsEdgeWithoutWitness) {
  const auto planar = GabrielNeighbors({0, 0}, {N(1, 10, 0)});
  ASSERT_EQ(planar.size(), 1u);
  EXPECT_EQ(planar[0].id, 1);
}

TEST(GabrielTest, RemovesWitnessedEdge) {
  // Witness at the midpoint of (self, 1) kills that edge.
  const auto planar =
      GabrielNeighbors({0, 0}, {N(1, 10, 0), N(2, 5, 0.1)});
  ASSERT_EQ(planar.size(), 1u);
  EXPECT_EQ(planar[0].id, 2);
}

TEST(GabrielTest, WitnessOutsideDiametralCircleKeepsEdge) {
  const auto planar =
      GabrielNeighbors({0, 0}, {N(1, 10, 0), N(2, 5, 6)});  // 6 > r=5.
  EXPECT_EQ(planar.size(), 2u);
}

TEST(GabrielTest, SquareCornersAreBoundaryNotWitnesses) {
  // On an exact unit square the adjacent corners lie exactly ON the
  // diametral circle of the diagonal, so the strict GG test keeps it.
  const auto exact = GabrielNeighbors(
      {0, 0}, {N(1, 1, 0), N(2, 0, 1), N(3, 1, 1)});
  EXPECT_EQ(exact.size(), 3u);
  // Nudging a corner inward makes it a proper witness: diagonal dropped.
  const auto nudged = GabrielNeighbors(
      {0, 0}, {N(1, 0.99, 0), N(2, 0, 1), N(3, 1, 1)});
  EXPECT_EQ(nudged.size(), 2u);
  for (const auto& e : nudged) EXPECT_NE(e.id, 3);
}

TEST(GabrielTest, PlanarEdgesDoNotCross) {
  // Global planarity check on a random unit-disk graph: compute each
  // node's Gabriel edges and verify no two (as segments) properly cross.
  Rng rng(12);
  const int n = 40;
  std::vector<Point> pos;
  for (int i = 0; i < n; ++i) {
    pos.push_back(rng.PointInRect({{0, 0}, {60, 60}}));
  }
  const double range = 20.0;
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < n; ++u) {
    std::vector<NeighborEntry> nbrs;
    for (int v = 0; v < n; ++v) {
      if (u == v || Distance(pos[u], pos[v]) > range) continue;
      NeighborEntry e;
      e.id = v;
      e.position = pos[v];
      nbrs.push_back(e);
    }
    for (const auto& e : GabrielNeighbors(pos[u], nbrs)) {
      if (u < e.id) edges.push_back({u, e.id});
    }
  }
  ASSERT_GT(edges.size(), 10u);
  int crossings = 0;
  for (size_t i = 0; i < edges.size(); ++i) {
    for (size_t j = i + 1; j < edges.size(); ++j) {
      auto [a, b] = edges[i];
      auto [c, d] = edges[j];
      if (a == c || a == d || b == c || b == d) continue;  // Share a node.
      if (SegmentsIntersect(pos[a], pos[b], pos[c], pos[d])) ++crossings;
    }
  }
  EXPECT_EQ(crossings, 0);
}

TEST(GabrielTest, EmptyNeighborsYieldsEmpty) {
  EXPECT_TRUE(GabrielNeighbors({0, 0}, {}).empty());
}

}  // namespace
}  // namespace diknn
