#include "faults/fault_plan.h"

#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_injector.h"
#include "net/network.h"

namespace diknn {
namespace {

NetworkConfig SmallConfig() {
  NetworkConfig config;
  config.node_count = 60;
  config.field = Rect::Field(70, 70);
  config.seed = 11;
  return config;
}

// Finds a node within radio range of `src` (unicast will reach it).
NodeId NearbyNode(Network* net, NodeId src) {
  const Point origin = net->node(src)->Position();
  for (int i = 0; i < net->size(); ++i) {
    if (i == src) continue;
    const double d = Distance(origin, net->node(i)->Position());
    if (d < 0.5 * net->config().radio_range_m) return i;
  }
  return kInvalidNodeId;
}

TEST(FaultPlanTest, ParsesMultiEventSpec) {
  std::string error;
  const auto plan = FaultPlan::Parse(
      "kill@t=5,count=2;ackloss@t=8,dur=2,prob=0.5,src=3;"
      "teleport@t=10,node=0,x=1.5,y=2.5;churn@t=1,up=20,down=5,frac=0.1",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->events.size(), 4u);

  EXPECT_EQ(plan->events[0].kind, FaultEvent::Kind::kKill);
  EXPECT_DOUBLE_EQ(plan->events[0].at, 5.0);
  EXPECT_EQ(plan->events[0].count, 2);

  EXPECT_EQ(plan->events[1].kind, FaultEvent::Kind::kAckLoss);
  EXPECT_DOUBLE_EQ(plan->events[1].duration, 2.0);
  EXPECT_DOUBLE_EQ(plan->events[1].probability, 0.5);
  EXPECT_EQ(plan->events[1].src, 3);
  EXPECT_EQ(plan->events[1].dst, kInvalidNodeId);

  EXPECT_EQ(plan->events[2].kind, FaultEvent::Kind::kTeleport);
  EXPECT_DOUBLE_EQ(plan->events[2].position.x, 1.5);
  EXPECT_DOUBLE_EQ(plan->events[2].position.y, 2.5);

  EXPECT_EQ(plan->events[3].kind, FaultEvent::Kind::kChurn);
  EXPECT_DOUBLE_EQ(plan->events[3].mean_up, 20.0);
  EXPECT_DOUBLE_EQ(plan->events[3].mean_down, 5.0);
  EXPECT_DOUBLE_EQ(plan->events[3].dead_fraction, 0.1);
}

TEST(FaultPlanTest, ToSpecRoundTrips) {
  const std::string spec =
      "kill@t=5,count=2;ackloss@t=8,dur=2,prob=0.5;"
      "teleport@t=10,node=0,x=1.5,y=2.5;freeze@t=12,node=0,dur=3";
  const auto plan = FaultPlan::Parse(spec);
  ASSERT_TRUE(plan.has_value());
  const auto reparsed = FaultPlan::Parse(plan->ToSpec());
  ASSERT_TRUE(reparsed.has_value()) << plan->ToSpec();
  ASSERT_EQ(reparsed->events.size(), plan->events.size());
  EXPECT_EQ(reparsed->ToSpec(), plan->ToSpec());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  std::string error;
  // Unknown kind.
  EXPECT_FALSE(FaultPlan::Parse("explode@t=1", &error).has_value());
  // Missing t.
  EXPECT_FALSE(FaultPlan::Parse("kill@node=3", &error).has_value());
  // Unknown key.
  EXPECT_FALSE(FaultPlan::Parse("kill@t=1,nodes=3", &error).has_value());
  EXPECT_NE(error.find("nodes"), std::string::npos);
  // Bad number.
  EXPECT_FALSE(FaultPlan::Parse("kill@t=abc,node=3", &error).has_value());
  // Window kinds need a duration.
  EXPECT_FALSE(FaultPlan::Parse("ackloss@t=1", &error).has_value());
  EXPECT_FALSE(FaultPlan::Parse("drop@t=1,prob=0.5", &error).has_value());
  // Teleport needs coordinates.
  EXPECT_FALSE(FaultPlan::Parse("teleport@t=1,node=3", &error).has_value());
  // Probability out of range.
  EXPECT_FALSE(
      FaultPlan::Parse("drop@t=1,dur=2,prob=1.5", &error).has_value());
  // Negative time.
  EXPECT_FALSE(FaultPlan::Parse("kill@t=-1,node=3", &error).has_value());
  // Non-finite numbers pass no range check, so they never parse.
  EXPECT_FALSE(FaultPlan::Parse("kill@t=nan,count=2", &error).has_value());
  EXPECT_NE(error.find("'t'"), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::Parse("kill@t=inf,count=2", &error).has_value());
  EXPECT_FALSE(
      FaultPlan::Parse("drop@t=1,dur=2,prob=nan", &error).has_value());
  // Integers outside int range are rejected, not wrapped.
  EXPECT_FALSE(
      FaultPlan::Parse("kill@t=5,count=99999999999", &error).has_value());
  EXPECT_NE(error.find("'count'"), std::string::npos) << error;
  EXPECT_FALSE(
      FaultPlan::Parse("freeze@t=1,node=4294967299", &error).has_value());
}

TEST(FaultInjectorTest, KillsRandomNodesSparingProtectedPrefix) {
  Network net(SmallConfig());
  const auto plan = FaultPlan::Parse("kill@t=1,count=10");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(&net, *plan, /*seed=*/7, /*protected_prefix=*/1);
  injector.Arm();
  net.sim().RunUntil(2.0);

  EXPECT_TRUE(net.node(0)->alive());
  int dead = 0;
  for (int i = 0; i < net.size(); ++i) {
    if (!net.node(i)->alive()) ++dead;
  }
  EXPECT_EQ(dead, 10);
  EXPECT_EQ(injector.stats().nodes_killed, 10u);
}

TEST(FaultInjectorTest, KillAndReviveSpecificNode) {
  Network net(SmallConfig());
  const auto plan = FaultPlan::Parse("kill@t=1,node=5;revive@t=2,node=5");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(&net, *plan, 7);
  injector.Arm();

  net.sim().RunUntil(1.5);
  EXPECT_FALSE(net.node(5)->alive());
  net.sim().RunUntil(2.5);
  EXPECT_TRUE(net.node(5)->alive());
  EXPECT_EQ(injector.stats().nodes_killed, 1u);
  EXPECT_EQ(injector.stats().nodes_revived, 1u);
}

TEST(FaultInjectorTest, FreezePinsNodeForTheWindow) {
  Network net(SmallConfig());
  const auto plan = FaultPlan::Parse("freeze@t=1,node=3,dur=2");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(&net, *plan, 7);
  injector.Arm();

  net.sim().RunUntil(1.5);
  ASSERT_TRUE(net.node(3)->position_pinned());
  const Point frozen = net.node(3)->Position();
  net.sim().RunUntil(2.5);
  EXPECT_TRUE(net.node(3)->position_pinned());
  EXPECT_DOUBLE_EQ(net.node(3)->Position().x, frozen.x);
  EXPECT_DOUBLE_EQ(net.node(3)->Position().y, frozen.y);
  net.sim().RunUntil(3.5);
  EXPECT_FALSE(net.node(3)->position_pinned());
  EXPECT_EQ(injector.stats().freezes, 1u);
}

TEST(FaultInjectorTest, TeleportMovesNode) {
  Network net(SmallConfig());
  const auto plan = FaultPlan::Parse("teleport@t=1,node=3,x=5,y=6");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(&net, *plan, 7);
  injector.Arm();

  net.sim().RunUntil(1.5);
  EXPECT_DOUBLE_EQ(net.node(3)->Position().x, 5.0);
  EXPECT_DOUBLE_EQ(net.node(3)->Position().y, 6.0);
  EXPECT_DOUBLE_EQ(net.node(3)->Speed(), 0.0);
  EXPECT_EQ(injector.stats().teleports, 1u);
}

TEST(FaultInjectorTest, AckLossWindowFailsUnicastsAfterRetries) {
  Network net(SmallConfig());
  net.Warmup(1.6);
  const NodeId dst = NearbyNode(&net, 0);
  ASSERT_NE(dst, kInvalidNodeId);

  // Window covers the whole attempt; every ACK is dropped, so the MAC
  // exhausts its retries and reports failure even though the data frames
  // themselves are delivered.
  const auto plan = FaultPlan::Parse("ackloss@t=0,dur=30");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(&net, *plan, 7);
  injector.Arm();

  bool callback_ran = false, delivered = false;
  net.node(0)->SendUnicast(dst, MessageType::kDiknnForward,
                           std::make_shared<Message>(), 20,
                           EnergyCategory::kQuery, [&](bool success) {
                             callback_ran = true;
                             delivered = success;
                           });
  net.sim().RunUntil(net.sim().Now() + 5.0);

  EXPECT_TRUE(callback_ran);
  EXPECT_FALSE(delivered);
  EXPECT_GE(injector.stats().acks_dropped, 1u);
  EXPECT_EQ(injector.stats().frames_dropped, 0u);
}

TEST(FaultInjectorTest, DropWindowSuppressesFrames) {
  Network net(SmallConfig());
  net.Warmup(1.6);
  const NodeId dst = NearbyNode(&net, 0);
  ASSERT_NE(dst, kInvalidNodeId);

  const auto plan = FaultPlan::Parse("drop@t=0,dur=30");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(&net, *plan, 7);
  injector.Arm();

  bool callback_ran = false, delivered = false;
  net.node(0)->SendUnicast(dst, MessageType::kDiknnForward,
                           std::make_shared<Message>(), 20,
                           EnergyCategory::kQuery, [&](bool success) {
                             callback_ran = true;
                             delivered = success;
                           });
  net.sim().RunUntil(net.sim().Now() + 5.0);

  EXPECT_TRUE(callback_ran);
  EXPECT_FALSE(delivered);
  EXPECT_GE(injector.stats().frames_dropped, 1u);
}

TEST(FaultInjectorTest, DuplicateWindowReairsFramesOnce) {
  Network net(SmallConfig());
  net.Warmup(1.6);
  const NodeId dst = NearbyNode(&net, 0);
  ASSERT_NE(dst, kInvalidNodeId);

  const auto plan = FaultPlan::Parse("dup@t=0,dur=30");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(&net, *plan, 7);
  injector.Arm();

  int handled = 0;
  net.node(dst)->RegisterHandler(MessageType::kDiknnForward,
                                 [&](const Packet&) { ++handled; });
  bool delivered = false;
  net.node(0)->SendUnicast(dst, MessageType::kDiknnForward,
                           std::make_shared<Message>(), 20,
                           EnergyCategory::kQuery,
                           [&](bool success) { delivered = success; });
  net.sim().RunUntil(net.sim().Now() + 5.0);

  // Duplication must not break delivery, and the receiver MAC drops the
  // re-aired copy by uid: the protocol sees the frame once.
  EXPECT_TRUE(delivered);
  EXPECT_GE(injector.stats().frames_duplicated, 1u);
  EXPECT_EQ(handled, 1);
  EXPECT_GE(net.node(dst)->mac().stats().duplicates_dropped, 1u);
}

TEST(FaultInjectorTest, DuplicateWindowReairsBroadcastsOnce) {
  // No warm-up, so no beacons: the broadcast and its re-aired copy are
  // the only frames, and every duplicate dropped is that copy's.
  Network net(SmallConfig());
  const auto plan = FaultPlan::Parse("dup@t=0,dur=30");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(&net, *plan, 7);
  injector.Arm();

  std::vector<int> handled(static_cast<size_t>(net.size()), 0);
  for (int i = 0; i < net.size(); ++i) {
    net.node(i)->RegisterHandler(
        MessageType::kFloodQuery,
        [&handled, i](const Packet&) { ++handled[static_cast<size_t>(i)]; });
  }
  net.node(0)->SendBroadcast(MessageType::kFloodQuery,
                             std::make_shared<Message>(), 20,
                             EnergyCategory::kQuery);
  net.sim().RunUntil(net.sim().Now() + 1.0);

  EXPECT_EQ(injector.stats().frames_duplicated, 1u);
  int reached = 0;
  uint64_t dropped = 0;
  for (int i = 0; i < net.size(); ++i) {
    EXPECT_LE(handled[static_cast<size_t>(i)], 1) << "node " << i;
    reached += handled[static_cast<size_t>(i)];
    dropped += net.node(i)->mac().stats().duplicates_dropped;
  }
  EXPECT_GE(reached, 1);
  EXPECT_GE(dropped, 1u);
}

TEST(FaultInjectorTest, SameSeedSamePlanIsBitIdentical) {
  auto run = [](uint64_t injector_seed) {
    Network net(SmallConfig());
    net.Warmup(1.6);
    const auto plan = FaultPlan::Parse(
        "kill@t=1,count=5;churn@t=2,up=10,down=3;drop@t=3,dur=4,prob=0.4");
    EXPECT_TRUE(plan.has_value());
    FaultInjector injector(&net, *plan, injector_seed);
    injector.Arm();
    net.sim().RunUntil(net.sim().Now() + 20.0);
    return std::make_pair(net.channel().stats().frames_sent,
                          injector.stats());
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second.nodes_killed, b.second.nodes_killed);
  EXPECT_EQ(a.second.nodes_revived, b.second.nodes_revived);
  EXPECT_EQ(a.second.frames_dropped, b.second.frames_dropped);
  EXPECT_EQ(a.second.Total(), b.second.Total());
}

}  // namespace
}  // namespace diknn
