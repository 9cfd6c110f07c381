#include "net/channel.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "net/node.h"

namespace diknn {
namespace {

// Minimal two-plus-node rig with controllable positions.
class ChannelTest : public ::testing::Test {
 protected:
  void Build(const std::vector<Point>& positions, ChannelParams params = {}) {
    channel_ = std::make_unique<Channel>(&sim_, params, Rng(1));
    NodeParams node_params;
    for (size_t i = 0; i < positions.size(); ++i) {
      nodes_.push_back(std::make_unique<Node>(
          static_cast<NodeId>(i), &sim_, channel_.get(),
          std::make_unique<StaticMobility>(positions[i]), node_params,
          Rng(100 + i)));
      channel_->Attach(nodes_.back().get());
    }
  }

  // Registers a counter handler for beacons on node `id`.
  int* CountBeacons(NodeId id) {
    auto counter = std::make_shared<int>(0);
    counters_.push_back(counter);
    nodes_[id]->RegisterHandler(MessageType::kBeacon,
                                [counter](const Packet&) { ++*counter; });
    return counter.get();
  }

  Packet MakeBeacon(size_t bytes = 20) {
    Packet p;
    p.type = MessageType::kBeacon;
    p.size_bytes = bytes;
    p.dst = kBroadcastId;
    p.uid = next_uid_++;
    return p;
  }

  Simulator sim_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::shared_ptr<int>> counters_;
  uint64_t next_uid_ = 1000;
};

TEST_F(ChannelTest, DeliversWithinRange) {
  Build({{0, 0}, {10, 0}, {50, 0}});
  int* near_count = CountBeacons(1);
  int* far_count = CountBeacons(2);
  channel_->Transmit(nodes_[0].get(), MakeBeacon());
  sim_.Run();
  EXPECT_EQ(*near_count, 1);  // 10 m < 20 m range.
  EXPECT_EQ(*far_count, 0);   // 50 m > range.
  EXPECT_EQ(channel_->stats().receptions_delivered, 1u);
}

TEST_F(ChannelTest, SenderDoesNotHearItself) {
  Build({{0, 0}, {10, 0}});
  int* self_count = CountBeacons(0);
  channel_->Transmit(nodes_[0].get(), MakeBeacon());
  sim_.Run();
  EXPECT_EQ(*self_count, 0);
}

TEST_F(ChannelTest, FrameDurationMatchesBitRate) {
  Build({{0, 0}});
  // 250 kbps: 100 bytes = 800 bits -> 3.2 ms.
  EXPECT_NEAR(channel_->FrameDuration(100), 0.0032, 1e-12);
}

TEST_F(ChannelTest, DeliveryHappensAfterAirTime) {
  Build({{0, 0}, {10, 0}});
  double delivered_at = -1;
  nodes_[1]->RegisterHandler(MessageType::kBeacon, [&](const Packet&) {
    delivered_at = sim_.Now();
  });
  channel_->Transmit(nodes_[0].get(), MakeBeacon(100));
  sim_.Run();
  EXPECT_NEAR(delivered_at, 0.0032, 1e-12);
}

TEST_F(ChannelTest, OverlappingFramesCollideAtCommonReceiver) {
  // Nodes 0 and 2 are hidden from each other (40 m apart) but both reach
  // node 1 in the middle: the classic hidden-terminal collision.
  Build({{0, 0}, {20, 0}, {40, 0}});
  int* count = CountBeacons(1);
  channel_->Transmit(nodes_[0].get(), MakeBeacon(100));
  sim_.ScheduleAfter(0.001, [&] {  // Overlaps the 3.2 ms first frame.
    channel_->Transmit(nodes_[2].get(), MakeBeacon(100));
  });
  sim_.Run();
  EXPECT_EQ(*count, 0);
  EXPECT_EQ(channel_->stats().receptions_collided, 2u);
}

TEST_F(ChannelTest, NonOverlappingFramesBothDeliver) {
  Build({{0, 0}, {20, 0}, {40, 0}});
  int* count = CountBeacons(1);
  channel_->Transmit(nodes_[0].get(), MakeBeacon(100));
  sim_.ScheduleAfter(0.01, [&] {  // Well after the first frame ends.
    channel_->Transmit(nodes_[2].get(), MakeBeacon(100));
  });
  sim_.Run();
  EXPECT_EQ(*count, 2);
}

TEST_F(ChannelTest, RandomLossDropsApproximatelyAtRate) {
  ChannelParams params;
  params.loss_rate = 0.3;
  Build({{0, 0}, {10, 0}}, params);
  int* count = CountBeacons(1);
  for (int i = 0; i < 1000; ++i) {
    sim_.ScheduleAt(i * 0.01, [&] {
      channel_->Transmit(nodes_[0].get(), MakeBeacon(20));
    });
  }
  sim_.Run();
  EXPECT_NEAR(*count, 700, 60);
  EXPECT_NEAR(channel_->stats().receptions_lost, 300u, 60);
}

TEST_F(ChannelTest, DeadNodesDoNotReceive) {
  Build({{0, 0}, {10, 0}});
  int* count = CountBeacons(1);
  nodes_[1]->set_alive(false);
  channel_->Transmit(nodes_[0].get(), MakeBeacon());
  sim_.Run();
  EXPECT_EQ(*count, 0);
  EXPECT_EQ(channel_->stats().receptions_attempted, 0u);
}

TEST_F(ChannelTest, CarrierSenseSeesOngoingTransmission) {
  Build({{0, 0}, {10, 0}});
  channel_->Transmit(nodes_[0].get(), MakeBeacon(1000));  // 32 ms on air.
  EXPECT_TRUE(channel_->IsBusyAt({5, 0}));
  EXPECT_FALSE(channel_->IsBusyAt({100, 0}));  // Out of hearing.
  sim_.RunUntil(0.1);
  EXPECT_FALSE(channel_->IsBusyAt({5, 0}));  // Frame has ended.
}

TEST_F(ChannelTest, StatsConservation) {
  // Under a random barrage, every attempted reception is accounted for
  // exactly once: delivered, collided, or randomly lost.
  ChannelParams params;
  params.loss_rate = 0.1;
  std::vector<Point> positions;
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    positions.push_back(rng.PointInRect({{0, 0}, {60, 60}}));
  }
  Build(positions, params);
  for (int i = 0; i < 500; ++i) {
    const int sender = rng.UniformInt(0, 19);
    sim_.ScheduleAt(rng.Uniform(0.0, 2.0), [this, sender] {
      channel_->Transmit(nodes_[sender].get(), MakeBeacon(40));
    });
  }
  sim_.Run();
  const ChannelStats& stats = channel_->stats();
  EXPECT_EQ(stats.frames_sent, 500u);
  EXPECT_GT(stats.receptions_attempted, 500u);
  EXPECT_EQ(stats.receptions_attempted,
            stats.receptions_delivered + stats.receptions_collided +
                stats.receptions_lost);
  EXPECT_GT(stats.receptions_collided, 0u);  // The barrage collides.
  EXPECT_GT(stats.receptions_lost, 0u);
}

TEST_F(ChannelTest, TransmitterIsChargedEnergy) {
  Build({{0, 0}, {10, 0}});
  channel_->Transmit(nodes_[0].get(), MakeBeacon(100));
  EXPECT_GT(nodes_[0]->energy().Joules(EnergyCategory::kQuery), 0.0);
  sim_.Run();
  // Receiver pays reception energy too.
  EXPECT_GT(nodes_[1]->energy().Joules(EnergyCategory::kQuery), 0.0);
}

}  // namespace
}  // namespace diknn
