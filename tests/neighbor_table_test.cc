#include "net/neighbor_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
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

TEST(NeighborTableTest, FirstProbeIsTheIdLaneAndChangesNothing) {
  NeighborTable table(1.5);
  EXPECT_EQ(table.FirstProbe(), nullptr);  // No entry to point at yet.

  table.Update(4, {4, 0}, 0.0);
  table.Update(2, {2, 0}, 0.5);
  table.Update(9, {9, 0}, 1.0);
  std::vector<NodeId> order_before;
  table.ForEachFresh(1.0, [&](const NeighborEntry& e) {
    order_before.push_back(e.id);
  });
  const NodeId* lane = table.FirstProbe();
  ASSERT_NE(lane, nullptr);
  EXPECT_EQ(lane[0], 4);  // The id lane, in insertion order.
  EXPECT_EQ(lane[1], 2);
  EXPECT_EQ(lane[2], 9);
  EXPECT_EQ(table.FirstProbe(), lane);
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

  table.Expire(10.0);  // Empty again: capacity stays, the probe does not.
  EXPECT_EQ(table.FirstProbe(), nullptr);
}

// Update, Lookup and Remove share one scan of the id lane: sixteen ids
// per step, then four, then a scalar remainder. Lengths 0..40 put a hit
// in every slot of every 16- and 4-wide block and of every remainder,
// before and after Expire and Remove compact the lanes.
TEST(NeighborTableTest, ScanFindsEveryIdAtEveryLength) {
  // Present ids are 3j + 1; 3j and 3j + 2 are absent, as are these.
  const std::vector<NodeId> always_absent = {
      kInvalidNodeId, -1, -4, -1000, 1 << 30,
      std::numeric_limits<NodeId>::min()};
  const auto check = [&](const NeighborTable& table, SimTime now,
                         const std::vector<NodeId>& present, int n) {
    for (const NodeId id : present) {
      const auto e = table.Lookup(id, now);
      ASSERT_TRUE(e.has_value()) << "n=" << n << " id=" << id;
      EXPECT_EQ(e->id, id);
      EXPECT_EQ(e->position, Point(id, -id)) << "n=" << n << " id=" << id;
    }
    for (NodeId id = 0; id <= 3 * n + 3; ++id) {
      if (std::find(present.begin(), present.end(), id) != present.end()) {
        continue;
      }
      EXPECT_FALSE(table.Lookup(id, now).has_value())
          << "n=" << n << " id=" << id;
    }
    for (const NodeId id : always_absent) {
      EXPECT_FALSE(table.Lookup(id, now).has_value())
          << "n=" << n << " id=" << id;
    }
    std::vector<NodeId> order;
    table.ForEachFresh(now, [&](const NeighborEntry& e) {
      order.push_back(e.id);
    });
    EXPECT_EQ(order, present) << "n=" << n;
  };

  for (int n = 0; n <= 40; ++n) {
    NeighborTable table(1.0);
    std::vector<NodeId> all;
    std::vector<NodeId> survivors;  // Heard at 2.0; the rest at 0.0.
    for (int j = 0; j < n; ++j) {
      const NodeId id = 3 * j + 1;
      const SimTime heard = j % 3 == 1 ? 0.0 : 2.0;
      table.Update(id, {static_cast<double>(id), static_cast<double>(-id)},
                   heard);
      all.push_back(id);
      if (heard > 0.0) survivors.push_back(id);
    }
    check(table, 1.0, all, n);  // Everything is fresh at t = 1.

    table.Expire(2.0);
    check(table, 2.0, survivors, n);

    std::vector<NodeId> kept;
    for (size_t j = 0; j < survivors.size(); ++j) {
      if (j % 2 == 0) {
        table.Remove(survivors[j]);
      } else {
        kept.push_back(survivors[j]);
      }
    }
    table.Remove(kInvalidNodeId);  // Absent: a no-op.
    check(table, 2.0, kept, n);
  }
}

}  // namespace
}  // namespace diknn
