#include "net/mac.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "net/node.h"

namespace diknn {
namespace {

struct TestMessage : Message {
  int value = 0;
  explicit TestMessage(int v) : value(v) {}
};

class MacTest : public ::testing::Test {
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

  // Hands node 0's MAC a frame carrying `uid` from node 1, as the channel
  // would; true when the MAC drops it as a duplicate. By default the frame
  // is a broadcast the fault hook re-aired, so it meets the duplicate
  // window; `dst` and `reaired` make other kinds of frame.
  bool Offer(uint64_t uid, NodeId dst = kBroadcastId, bool reaired = true) {
    Packet packet;
    packet.src = 1;
    packet.dst = dst;
    packet.type = MessageType::kBeacon;
    packet.uid = uid;
    packet.reaired = reaired;
    return nodes_[0]->mac().FilterReceive(packet);
  }

  Simulator sim_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(MacTest, UnicastDeliversAndAcks) {
  Build({{0, 0}, {10, 0}});
  int received = 0;
  nodes_[1]->RegisterHandler(MessageType::kGeoRouted, [&](const Packet& p) {
    ++received;
    EXPECT_EQ(static_cast<const TestMessage*>(p.payload.get())->value, 42);
    EXPECT_EQ(p.src, 0);
  });
  bool callback_success = false;
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(42), 20,
                         EnergyCategory::kQuery,
                         [&](bool ok) { callback_success = ok; });
  sim_.Run();
  EXPECT_EQ(received, 1);
  EXPECT_TRUE(callback_success);
  EXPECT_EQ(nodes_[0]->mac().stats().retries, 0u);
}

TEST_F(MacTest, UnicastToUnreachableFailsAfterRetries) {
  Build({{0, 0}, {100, 0}});  // Out of range.
  bool callback_called = false, callback_success = true;
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(1), 20,
                         EnergyCategory::kQuery, [&](bool ok) {
                           callback_called = true;
                           callback_success = ok;
                         });
  sim_.Run();
  EXPECT_TRUE(callback_called);
  EXPECT_FALSE(callback_success);
  const MacStats& stats = nodes_[0]->mac().stats();
  EXPECT_EQ(stats.retries, 3u);  // max_frame_retries default.
  EXPECT_EQ(stats.tx_attempts, 4u);
  EXPECT_EQ(stats.send_failures, 1u);
}

TEST_F(MacTest, BroadcastNeedsNoAck) {
  Build({{0, 0}, {10, 0}, {15, 0}});
  int received = 0;
  for (int i = 1; i <= 2; ++i) {
    nodes_[i]->RegisterHandler(MessageType::kBeacon,
                               [&](const Packet&) { ++received; });
  }
  bool done = false;
  nodes_[0]->SendBroadcast(MessageType::kBeacon,
                           std::make_shared<TestMessage>(0), 20,
                           EnergyCategory::kBeacon,
                           [&](bool ok) { done = ok; });
  sim_.Run();
  EXPECT_EQ(received, 2);
  EXPECT_TRUE(done);
  EXPECT_EQ(nodes_[0]->mac().stats().tx_attempts, 1u);
}

TEST_F(MacTest, QueueSerializesFrames) {
  Build({{0, 0}, {10, 0}});
  std::vector<int> received;
  nodes_[1]->RegisterHandler(MessageType::kGeoRouted, [&](const Packet& p) {
    received.push_back(static_cast<const TestMessage*>(p.payload.get())->value);
  });
  for (int i = 0; i < 5; ++i) {
    nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                           std::make_shared<TestMessage>(i), 20,
                           EnergyCategory::kQuery);
  }
  sim_.Run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(MacTest, UnicastNotDeliveredToProtocolOfBystander) {
  Build({{0, 0}, {10, 0}, {12, 0}});
  int bystander = 0;
  nodes_[2]->RegisterHandler(MessageType::kGeoRouted,
                             [&](const Packet&) { ++bystander; });
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(0), 20,
                         EnergyCategory::kQuery);
  sim_.Run();
  EXPECT_EQ(bystander, 0);  // Overheard frames are filtered by the MAC.
}

TEST_F(MacTest, DuplicateSuppression) {
  // Lossy channel forces retransmissions; the receiver must deliver each
  // logical frame to the protocol at most once.
  ChannelParams params;
  params.loss_rate = 0.4;
  Build({{0, 0}, {5, 0}}, params);
  int received = 0;
  nodes_[1]->RegisterHandler(MessageType::kGeoRouted,
                             [&](const Packet&) { ++received; });
  int sent = 0, acked = 0;
  for (int i = 0; i < 200; ++i) {
    sim_.ScheduleAt(i * 0.05, [&] {
      ++sent;
      nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                             std::make_shared<TestMessage>(0), 20,
                             EnergyCategory::kQuery, [&](bool ok) {
                               if (ok) ++acked;
                             });
    });
  }
  sim_.Run();
  // Every frame the protocol saw was delivered exactly once, so the
  // receive count can never exceed the send count even though the MAC
  // retransmitted (duplicates_dropped > 0 shows dedup actually engaged).
  EXPECT_LE(received, sent);
  EXPECT_GE(received, acked);  // An acked frame was certainly delivered.
  EXPECT_GT(nodes_[0]->mac().stats().retries, 0u);
  EXPECT_GT(nodes_[1]->mac().stats().duplicates_dropped, 0u);
}

TEST_F(MacTest, CsmaDefersWhileChannelBusy) {
  Build({{0, 0}, {10, 0}, {5, 5}});
  // A foreign transmission occupies the channel for 16 ms — longer than
  // any single backoff draw, short enough that the CSMA retry budget can
  // outlast it.
  Packet big;
  big.type = MessageType::kBeacon;
  big.size_bytes = 500;  // 16 ms on air.
  big.uid = 77;
  channel_->Transmit(nodes_[2].get(), big);

  double delivered_at = -1;
  nodes_[1]->RegisterHandler(MessageType::kGeoRouted, [&](const Packet&) {
    delivered_at = sim_.Now();
  });
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(0), 20,
                         EnergyCategory::kQuery);
  sim_.Run();
  // The frame could not start until the 16 ms blocker ended.
  EXPECT_GT(delivered_at, 0.016);
}

TEST_F(MacTest, DeadNodeDoesNotSend) {
  Build({{0, 0}, {10, 0}});
  nodes_[0]->set_alive(false);
  bool callback_success = true;
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(0), 20,
                         EnergyCategory::kQuery,
                         [&](bool ok) { callback_success = ok; });
  sim_.Run();
  EXPECT_FALSE(callback_success);
  EXPECT_EQ(channel_->stats().frames_sent, 0u);
}

TEST_F(MacTest, MacHeaderAddedToWireSize) {
  Build({{0, 0}, {10, 0}});
  double delivered_at = -1;
  nodes_[1]->RegisterHandler(MessageType::kGeoRouted, [&](const Packet& p) {
    delivered_at = sim_.Now();
    EXPECT_EQ(p.size_bytes, 20 + kMacHeaderBytes);
  });
  nodes_[0]->SendUnicast(1, MessageType::kGeoRouted,
                         std::make_shared<TestMessage>(0), 20,
                         EnergyCategory::kQuery);
  sim_.Run();
  EXPECT_GT(delivered_at, 0.0);
}

TEST_F(MacTest, DuplicateWindowHoldsTheLast256DeliveredUids) {
  Build({{0, 0}});
  const auto uid = [](uint64_t seq) { return (uint64_t{5} << 40) | seq; };
  const uint64_t target = uid(0);
  EXPECT_FALSE(Offer(target));
  for (uint64_t seq = 1; seq <= 255; ++seq) EXPECT_FALSE(Offer(uid(seq)));
  // 255 later distinct uids: the target is still inside the window, and
  // dropping it does not refresh its age.
  EXPECT_TRUE(Offer(target));
  // The 256th later uid evicts it; re-aired now, it is delivered again and
  // re-enters the window, evicting the next-oldest uid (seq 1).
  EXPECT_FALSE(Offer(uid(256)));
  EXPECT_FALSE(Offer(target));
  EXPECT_TRUE(Offer(target));
  EXPECT_TRUE(Offer(uid(2)));
  EXPECT_FALSE(Offer(uid(1)));
  EXPECT_EQ(nodes_[0]->mac().stats().duplicates_dropped, 3u);
}

TEST_F(MacTest, PlainBroadcastsDoNotAgeTheDuplicateWindow) {
  // A plain broadcast is aired once, so it never enters the window: 300
  // of them (more than the window holds) must not evict a unicast uid,
  // whose retransmission is still dropped.
  Build({{0, 0}, {10, 0}});
  const auto uid = [](uint64_t seq) { return (uint64_t{1} << 40) | seq; };
  const uint64_t unicast = uid(0);
  EXPECT_FALSE(Offer(unicast, /*dst=*/0));
  for (uint64_t seq = 1; seq <= 300; ++seq) {
    EXPECT_FALSE(Offer(uid(seq), kBroadcastId, /*reaired=*/false));
  }
  EXPECT_TRUE(Offer(unicast, /*dst=*/0));
  EXPECT_EQ(nodes_[0]->mac().stats().duplicates_dropped, 1u);
}

TEST_F(MacTest, DuplicateWindowMatchesFifoSetModel) {
  // Uids drawn from small pools, so hits, evictions and long probe
  // clusters all occur, checked call by call against a deque + set model
  // of "the last 256 uids delivered upward, FIFO-evicted".
  Build({{0, 0}});
  Rng rng(2024);
  const auto draw_pool = [&rng](size_t size) {
    std::vector<uint64_t> pool = {0};
    while (pool.size() < size) {
      const uint64_t hi = rng.NextUint32();
      const uint64_t lo = rng.NextUint32();
      // Half in the MAC's (node << 40 | sequence) layout, half arbitrary.
      pool.push_back(pool.size() % 2 == 0 ? (hi % 200) << 40 | (lo % 4096)
                                          : hi << 32 | lo);
    }
    return pool;
  };
  std::deque<uint64_t> order;
  std::unordered_set<uint64_t> window;
  uint64_t drops = 0;
  uint64_t evictions = 0;
  // A pool barely above the window (mostly hits), then a wide one (mostly
  // misses and evictions).
  for (const size_t pool_size : {300, 2000}) {
    const std::vector<uint64_t> pool = draw_pool(pool_size);
    for (int call = 0; call < 60000; ++call) {
      const uint64_t uid = pool[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(pool.size()) - 1))];
      const bool duplicate = window.count(uid) > 0;
      if (duplicate) {
        ++drops;
      } else {
        window.insert(uid);
        order.push_back(uid);
        if (order.size() > 256) {
          window.erase(order.front());
          order.pop_front();
          ++evictions;
        }
      }
      ASSERT_EQ(Offer(uid), duplicate)
          << "pool " << pool_size << ", call " << call << ", uid " << uid;
    }
  }
  EXPECT_EQ(nodes_[0]->mac().stats().duplicates_dropped, drops);
  EXPECT_GT(drops, 30000u);
  EXPECT_GT(evictions, 30000u);
}

}  // namespace
}  // namespace diknn
