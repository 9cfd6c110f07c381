#include "routing/gpsr.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "routing/greedy.h"

namespace diknn {
namespace {

struct PingMessage : Message {
  int token = 0;
  explicit PingMessage(int t) : token(t) {}
};

NetworkConfig StaticGrid(int count, double side) {
  NetworkConfig config;
  config.node_count = count;
  config.field = Rect::Field(side, side);
  config.mobility = MobilityKind::kStatic;
  config.placement = PlacementKind::kGrid;
  config.seed = 3;
  return config;
}

// Two neighbours exactly as far from the destination: the lower id is
// the next hop whichever of them the table lists first, so a route never
// depends on table order.
TEST(GreedyNextHopTest, EqualDistanceTiesGoToLowerId) {
  const Point self{0, 0};
  const Point dest{10, 0};
  for (const bool lower_first : {false, true}) {
    std::vector<NeighborEntry> entries = {{7, {10, 5}, 0.0},
                                          {4, {10, -5}, 0.0}};
    if (lower_first) std::swap(entries[0], entries[1]);

    const NeighborEntry* hop =
        GreedyNextHop(entries, dest, Distance(self, dest), kInvalidNodeId);
    ASSERT_NE(hop, nullptr);
    EXPECT_EQ(hop->id, 4) << "lower id listed first: " << lower_first;

    NeighborTable table;
    for (const NeighborEntry& e : entries) table.Update(e.id, e.position, 0.0);
    NeighborEntry out;
    ASSERT_TRUE(
        GreedyNextHopFrom(table, self, dest, kInvalidNodeId, 0.0, &out));
    EXPECT_EQ(out.id, 4) << "lower id listed first: " << lower_first;
  }
}

class GpsrTest : public ::testing::Test {
 protected:
  void Build(NetworkConfig config) {
    net_ = std::make_unique<Network>(config);
    gpsr_ = std::make_unique<GpsrRouting>(net_.get());
    gpsr_->Install();
    gpsr_->RegisterDelivery(
        MessageType::kDiknnQuery,
        [this](Node* node, const GeoRoutedMessage& msg) {
          delivered_at_ = node->id();
          last_message_ = msg;
          ++deliveries_;
        });
    net_->Warmup(1.6);
  }

  std::unique_ptr<Network> net_;
  std::unique_ptr<GpsrRouting> gpsr_;
  NodeId delivered_at_ = kInvalidNodeId;
  GeoRoutedMessage last_message_;
  int deliveries_ = 0;
};

TEST_F(GpsrTest, DeliversAtNodeNearestDestination) {
  Build(StaticGrid(100, 100));  // 10x10 grid, ~10 m spacing, r = 20 m.
  const Point dest{77, 33};
  gpsr_->Send(net_->node(0), dest, MessageType::kDiknnQuery,
              std::make_shared<PingMessage>(1), 10, EnergyCategory::kQuery);
  net_->sim().RunUntil(net_->sim().Now() + 5.0);
  ASSERT_EQ(deliveries_, 1);
  // Delivery lands at (or adjacent to) the true nearest node. With the
  // direct-delivery shortcut, the home node is within 0.75 r of the
  // destination or is the greedy local minimum.
  const double d = Distance(net_->node(delivered_at_)->Position(), dest);
  const double best =
      Distance(net_->node(net_->TrueNearestNode(dest))->Position(), dest);
  EXPECT_LE(d, best + 15.0);
  EXPECT_LE(d, 20.0);
}

TEST_F(GpsrTest, LocalDeliveryWhenSourceIsNearest) {
  Build(StaticGrid(100, 100));
  const Point self_pos = net_->node(0)->Position();
  gpsr_->Send(net_->node(0), self_pos, MessageType::kDiknnQuery,
              std::make_shared<PingMessage>(2), 10, EnergyCategory::kQuery);
  net_->sim().RunUntil(net_->sim().Now() + 2.0);
  EXPECT_EQ(deliveries_, 1);
  EXPECT_EQ(delivered_at_, 0);
}

TEST_F(GpsrTest, CollectsInfoListAlongPath) {
  Build(StaticGrid(100, 100));
  const Point dest{90, 90};
  gpsr_->Send(net_->node(0), dest, MessageType::kDiknnQuery,
              std::make_shared<PingMessage>(3), 10, EnergyCategory::kQuery,
              /*collect_info=*/true);
  net_->sim().RunUntil(net_->sim().Now() + 5.0);
  ASSERT_EQ(deliveries_, 1);
  ASSERT_GE(last_message_.info_list.size(), 3u);
  // Locations progress toward the destination.
  const auto& list = last_message_.info_list;
  EXPECT_LT(Distance(list.back().location, dest),
            Distance(list.front().location, dest));
  // Every entry has a sane enc count.
  for (const auto& hop : list) {
    EXPECT_GE(hop.encountered, 0);
    EXPECT_LE(hop.encountered, net_->size());
  }
  // The first entry counted the full neighborhood of the source.
  EXPECT_GT(list.front().encountered, 0);
}

TEST_F(GpsrTest, TargetNodeShortCircuit) {
  Build(StaticGrid(100, 100));
  // Address a specific node, giving a *stale* position several cells off;
  // the message must still reach the target via the neighbor-table
  // short-circuit once it gets close.
  const NodeId target = 55;
  const Point near_target =
      net_->node(target)->Position() + Point{12, 0};
  gpsr_->Send(net_->node(0), near_target, MessageType::kDiknnQuery,
              std::make_shared<PingMessage>(4), 10, EnergyCategory::kQuery,
              false, target);
  net_->sim().RunUntil(net_->sim().Now() + 5.0);
  ASSERT_EQ(deliveries_, 1);
  EXPECT_EQ(delivered_at_, target);
}

TEST_F(GpsrTest, RoutesAroundVoid) {
  // Hand-built topology: the only paths from the left corridor to the
  // right corridor arc around a large central void. Greedy forwarding
  // fails at the void's edge and perimeter mode must carry the packet
  // around it.
  NetworkConfig config;
  config.field = Rect::Field(200, 120);
  config.mobility = MobilityKind::kStatic;
  config.seed = 9;
  config.explicit_positions = {
      {10, 60},  {25, 60},  {40, 60},  {55, 60},   // Dead-end spur: node 3
      {50, 75},  {50, 90},  {68, 94},  {86, 95},   // is a greedy local
      {104, 95}, {120, 85}, {125, 68}, {140, 62},  // minimum; the wall
      {158, 60},                                   // arcs over the void.
  };
  Build(config);
  // Node 12 at (158, 60) is nearest to the destination.
  gpsr_->Send(net_->node(0), Point{160, 60}, MessageType::kDiknnQuery,
              std::make_shared<PingMessage>(5), 10, EnergyCategory::kQuery);
  net_->sim().RunUntil(net_->sim().Now() + 5.0);
  ASSERT_EQ(deliveries_, 1);
  EXPECT_EQ(delivered_at_, 12);
  EXPECT_GT(gpsr_->stats().perimeter_hops, 0u);
}

TEST_F(GpsrTest, HopCountsAreTracked) {
  Build(StaticGrid(100, 100));
  gpsr_->Send(net_->node(0), Point{90, 90}, MessageType::kDiknnQuery,
              std::make_shared<PingMessage>(6), 10, EnergyCategory::kQuery);
  net_->sim().RunUntil(net_->sim().Now() + 5.0);
  EXPECT_EQ(gpsr_->stats().sends, 1u);
  EXPECT_EQ(gpsr_->stats().deliveries, 1u);
  EXPECT_GE(gpsr_->stats().greedy_hops, 4u);  // ~127 m at <= 20 m hops.
}

TEST_F(GpsrTest, MobileNetworkStillDelivers) {
  NetworkConfig config;
  config.node_count = 150;
  config.field = Rect::Field(115, 115);
  config.mobility = MobilityKind::kRandomWaypoint;
  config.max_speed = 10.0;
  config.seed = 21;
  Build(config);
  int attempts = 0;
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const Point dest = rng.PointInRect(config.field);
    gpsr_->Send(net_->node(i), dest, MessageType::kDiknnQuery,
                std::make_shared<PingMessage>(i), 10,
                EnergyCategory::kQuery);
    ++attempts;
    net_->sim().RunUntil(net_->sim().Now() + 2.0);
  }
  // Under mobility some deliveries may land at a near-miss node, but the
  // overwhelming majority of sends must complete.
  EXPECT_GE(deliveries_, attempts - 1);
}

TEST_F(GpsrTest, CheapDeliveryAcceptsNearbyNode) {
  Build(StaticGrid(100, 100));
  // Address a node with a position several cells away from where it
  // actually is; cheap mode may deliver at whoever is nearest the stale
  // position instead of hunting the target — but it must deliver fast
  // and exactly once somewhere.
  gpsr_->Send(net_->node(0), Point{90, 90}, MessageType::kDiknnQuery,
              std::make_shared<PingMessage>(10), 10,
              EnergyCategory::kQuery, false, /*target_node=*/55,
              /*cheap_delivery=*/true);
  net_->sim().RunUntil(net_->sim().Now() + 5.0);
  EXPECT_EQ(deliveries_, 1);
  EXPECT_EQ(gpsr_->stats().ttl_expired, 0u);
}

TEST_F(GpsrTest, EnergyChargedToRequestedCategory) {
  Build(StaticGrid(100, 100));
  const double before = net_->TotalEnergy(EnergyCategory::kMaintenance);
  gpsr_->Send(net_->node(0), Point{90, 90}, MessageType::kDiknnQuery,
              std::make_shared<PingMessage>(7), 10,
              EnergyCategory::kMaintenance);
  net_->sim().RunUntil(net_->sim().Now() + 5.0);
  EXPECT_GT(net_->TotalEnergy(EnergyCategory::kMaintenance), before);
}

}  // namespace
}  // namespace diknn
