#include "net/beacon.h"

#include <algorithm>
#include <memory>

#include "core/alloc_probe.h"
#include "net/packet_pool.h"

namespace diknn {

BeaconService::BeaconService(Simulator* sim, std::vector<Node*> nodes,
                             SimTime interval, Rng rng)
    : sim_(sim), nodes_(std::move(nodes)), interval_(interval), rng_(rng) {}

void BeaconService::Start() {
  for (Node* node : nodes_) {
    node->RegisterHandler(MessageType::kBeacon, [node](const Packet& p) {
      const auto* beacon =
          static_cast<const BeaconMessage*>(p.payload.get());
      node->neighbors().Update(beacon->id, beacon->position,
                               node->sim()->Now());
    });
  }

  // Draw one phase per node (in node order, matching the historical RNG
  // stream) and sort the sweep by first-fire time. Stable sort keeps
  // node order for equal phases — the FIFO order separate events would
  // have had.
  schedule_.clear();
  schedule_.reserve(nodes_.size());
  const SimTime now = sim_->Now();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const SimTime phase = rng_.Uniform(0.0, interval_);
    schedule_.push_back(
        SweepEntry{now + phase, static_cast<uint32_t>(i)});
  }
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const SweepEntry& a, const SweepEntry& b) {
                     return a.next_time < b.next_time;
                   });
  cursor_ = 0;
  if (!schedule_.empty()) ScheduleSweep();
}

void BeaconService::ScheduleSweep() {
  sim_->ScheduleAt(schedule_[cursor_].next_time, [this]() { FireSweep(); });
}

void BeaconService::FireSweep() {
  // Beaconing is packet-plane work: attribute its allocations to the
  // channel's net scope (pooled payloads make the steady state free).
  Channel* channel =
      nodes_.empty() ? nullptr : nodes_.front()->channel();
  AllocScope alloc_scope(channel != nullptr ? &channel->net_allocs()
                                            : nullptr);
  // Send every beacon due at exactly this timestamp (ties only arise
  // when two accumulated phase series collide bit-for-bit; they then
  // fire in sweep order, which is the order separate events would have
  // fired in). Dead nodes stay in the rotation — like the historical
  // per-node periodic, beaconing resumes if a node is revived.
  const SimTime t = schedule_[cursor_].next_time;
  do {
    SweepEntry& entry = schedule_[cursor_];
    Node* node = nodes_[entry.node_index];
    if (node->alive()) SendBeacon(node);
    entry.next_time += interval_;
    cursor_ = cursor_ + 1 < schedule_.size() ? cursor_ + 1 : 0;
  } while (cursor_ != 0 && schedule_[cursor_].next_time == t);
  ScheduleSweep();
}

void BeaconService::SendBeacon(Node* node) {
  // A node drops the neighbors it has not heard within the timeout each
  // time it beacons, as psim's sweep does, so its table holds the ~32
  // fresh entries of Section 5.1 rather than everyone it ever heard.
  node->neighbors().Expire(sim_->Now());
  auto msg = MessagePool::Make<BeaconMessage>();
  msg->id = node->id();
  msg->position = node->Position();
  node->SendBroadcast(MessageType::kBeacon, std::move(msg), kBeaconBodyBytes,
                      EnergyCategory::kBeacon);
}

}  // namespace diknn
