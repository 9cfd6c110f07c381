#include "net/beacon.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"

namespace diknn {
namespace {

TEST(BeaconTest, NeighborTablesMatchTrueTopology) {
  NetworkConfig config;
  config.node_count = 60;
  config.field = Rect::Field(90, 90);
  config.mobility = MobilityKind::kStatic;
  config.seed = 4;
  Network net(config);
  net.Warmup(1.6);  // Three beacon rounds.

  // Every true in-range pair should know each other (static network, no
  // contention to speak of).
  const SimTime now = net.sim().Now();
  int in_range = 0, known = 0;
  for (int u = 0; u < net.size(); ++u) {
    for (int v = 0; v < net.size(); ++v) {
      if (u == v) continue;
      if (Distance(net.node(u)->Position(), net.node(v)->Position()) <=
          config.radio_range_m) {
        ++in_range;
        if (net.node(u)->neighbors().Lookup(v, now).has_value()) ++known;
      }
    }
  }
  ASSERT_GT(in_range, 50);
  EXPECT_GE(static_cast<double>(known) / in_range, 0.9);
}

TEST(BeaconTest, BeaconsCarryPosition) {
  NetworkConfig config;
  config.node_count = 10;
  config.field = Rect::Field(30, 30);
  config.max_speed = 10.0;
  config.seed = 8;
  Network net(config);
  net.Warmup(1.6);
  const SimTime now = net.sim().Now();
  int checked = 0;
  std::vector<NeighborEntry> snap;
  for (int u = 0; u < net.size(); ++u) {
    net.node(u)->neighbors().SnapshotInto(now, &snap);
    for (const NeighborEntry& e : snap) {
      // The advertised position is at most (staleness * max speed) off.
      const double staleness = now - e.last_heard;
      const double error =
          Distance(e.position, net.node(e.id)->Position());
      EXPECT_LE(error, staleness * config.max_speed + 1e-6);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(BeaconTest, DeadNodesStopBeaconing) {
  NetworkConfig config;
  config.node_count = 10;
  config.field = Rect::Field(30, 30);
  config.mobility = MobilityKind::kStatic;
  config.seed = 9;
  Network net(config);
  net.Warmup(1.6);
  net.node(3)->set_alive(false);
  // After the staleness timeout the dead node disappears from tables.
  net.sim().RunUntil(net.sim().Now() + 2.0);
  const SimTime now = net.sim().Now();
  for (int u = 0; u < net.size(); ++u) {
    if (u == 3) continue;
    EXPECT_FALSE(net.node(u)->neighbors().Lookup(3, now).has_value());
  }
}

TEST(BeaconTest, RevivedNodeIsListedLast) {
  // A node drops expired neighbors when it beacons, so a neighbor heard
  // again after an outage longer than the timeout is a first contact and
  // takes the last slot, not the one it held before.
  NetworkConfig config;
  config.node_count = 10;
  config.field = Rect::Field(14, 14);  // Diagonal < r: all in range.
  config.mobility = MobilityKind::kStatic;
  config.seed = 9;
  Network net(config);
  net.Warmup(1.6);
  net.node(3)->set_alive(false);
  net.sim().RunUntil(net.sim().Now() + config.neighbor_timeout + 1.0);
  net.node(3)->set_alive(true);
  net.sim().RunUntil(net.sim().Now() + 2 * config.beacon_interval);
  const SimTime now = net.sim().Now();
  for (int u = 0; u < net.size(); ++u) {
    if (u == 3) continue;
    std::vector<NodeId> order;
    net.node(u)->neighbors().ForEachFresh(
        now, [&](const NeighborEntry& e) { order.push_back(e.id); });
    ASSERT_EQ(order.size(), 9u) << u;
    EXPECT_EQ(order.back(), 3) << u;
  }
}

TEST(BeaconTest, MobileNeighborhoodsTrackMovement) {
  NetworkConfig config;
  config.node_count = 80;
  config.field = Rect::Field(115, 115);
  config.max_speed = 10.0;
  config.seed = 10;
  Network net(config);
  net.Warmup(1.6);
  const double degree_before = net.AverageDegree();
  net.sim().RunUntil(net.sim().Now() + 20.0);
  const double degree_after = net.AverageDegree();
  // Tables keep tracking: degree stays in a sane band instead of decaying
  // to zero as nodes move away from their original neighbors.
  EXPECT_GT(degree_after, 0.5 * degree_before);
}

}  // namespace
}  // namespace diknn
