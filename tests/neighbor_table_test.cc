#include "net/neighbor_table.h"

#include <gtest/gtest.h>

#include <vector>

namespace diknn {
namespace {

TEST(NeighborTableTest, InsertAndLookup) {
  NeighborTable table(1.5);
  table.Update(7, {1, 2}, /*now=*/10.0);
  const auto e = table.Lookup(7, 10.5);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, 7);
  EXPECT_EQ(e->position, Point(1, 2));
  EXPECT_DOUBLE_EQ(e->last_heard, 10.0);
}

TEST(NeighborTableTest, UpdateRefreshesEntry) {
  NeighborTable table(1.5);
  table.Update(7, {1, 2}, 10.0);
  table.Update(7, {5, 6}, 11.0);
  const auto e = table.Lookup(7, 11.0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->position, Point(5, 6));
  EXPECT_EQ(table.CountFresh(11.0), 1);
}

TEST(NeighborTableTest, StaleEntriesInvisible) {
  NeighborTable table(1.5);
  table.Update(7, {1, 2}, 10.0);
  EXPECT_TRUE(table.Lookup(7, 11.5).has_value());   // Exactly at timeout.
  EXPECT_FALSE(table.Lookup(7, 11.51).has_value());
  EXPECT_EQ(table.CountFresh(12.0), 0);
  std::vector<NeighborEntry> snap;
  table.SnapshotInto(12.0, &snap);
  EXPECT_TRUE(snap.empty());
}

TEST(NeighborTableTest, ExpirePurgesOldEntries) {
  NeighborTable table(1.0);
  table.Update(1, {0, 0}, 0.0);
  table.Update(2, {0, 0}, 5.0);
  table.Expire(5.5);
  EXPECT_FALSE(table.Lookup(1, 5.5).has_value());
  EXPECT_TRUE(table.Lookup(2, 5.5).has_value());
}

TEST(NeighborTableTest, RemoveDeletesImmediately) {
  NeighborTable table(10.0);
  table.Update(3, {0, 0}, 0.0);
  table.Remove(3);
  EXPECT_FALSE(table.Lookup(3, 0.0).has_value());
}

TEST(NeighborTableTest, SnapshotReturnsFreshOnly) {
  NeighborTable table(1.0);
  table.Update(1, {0, 0}, 0.0);
  table.Update(2, {1, 1}, 2.0);
  table.Update(3, {2, 2}, 2.5);
  std::vector<NeighborEntry> snap;
  table.SnapshotInto(2.6, &snap);
  EXPECT_EQ(snap.size(), 2u);
}

TEST(NeighborTableTest, ClosestToPicksMinimum) {
  NeighborTable table(10.0);
  table.Update(1, {0, 0}, 0.0);
  table.Update(2, {5, 0}, 0.0);
  table.Update(3, {9, 0}, 0.0);
  const auto e = table.ClosestTo({6, 0}, 0.0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, 2);
}

TEST(NeighborTableTest, ClosestToEmptyIsNullopt) {
  NeighborTable table(1.0);
  EXPECT_FALSE(table.ClosestTo({0, 0}, 0.0).has_value());
}

TEST(NeighborTableTest, CountFartherThanMatchesEncSemantics) {
  NeighborTable table(10.0);
  // Previous hop at origin, radio range 5: "newly encountered" neighbors
  // are those farther than 5 from the origin.
  table.Update(1, {3, 0}, 0.0);   // Inside old disk.
  table.Update(2, {6, 0}, 0.0);   // New.
  table.Update(3, {0, 8}, 0.0);   // New.
  table.Update(4, {5, 0}, 0.0);   // Exactly on the edge: not counted.
  EXPECT_EQ(table.CountFartherThan({0, 0}, 5.0, 0.0), 2);
}

TEST(NeighborTableTest, FirstProbeNeedsSlotsAndChangesNothing) {
  NeighborTable table(1.5);
  EXPECT_EQ(table.FirstProbe(3), nullptr);  // Before any Reserve/Update.
  NeighborTable reserved(1.5);
  reserved.Reserve(8);
  EXPECT_NE(reserved.FirstProbe(3), nullptr);

  table.Update(4, {4, 0}, 0.0);
  table.Update(2, {2, 0}, 0.5);
  table.Update(9, {9, 0}, 1.0);
  std::vector<NodeId> order_before;
  table.ForEachFresh(1.0, [&](const NeighborEntry& e) {
    order_before.push_back(e.id);
  });
  for (NodeId id : {4, 2, 9, 3, 100, -2}) {  // Present and absent ids.
    EXPECT_NE(table.FirstProbe(id), nullptr) << id;
  }
  EXPECT_EQ(table.CountFresh(1.0), 3);
  std::vector<NodeId> order_after;
  table.ForEachFresh(1.0, [&](const NeighborEntry& e) {
    order_after.push_back(e.id);
  });
  EXPECT_EQ(order_after, order_before);
  EXPECT_EQ(order_after, (std::vector<NodeId>{4, 2, 9}));
  for (NodeId id : {4, 2, 9}) {
    const auto e = table.Lookup(id, 1.0);
    ASSERT_TRUE(e.has_value()) << id;
    EXPECT_EQ(e->position, Point(id, 0));
  }
  EXPECT_FALSE(table.Lookup(3, 1.0).has_value());
}

}  // namespace
}  // namespace diknn
