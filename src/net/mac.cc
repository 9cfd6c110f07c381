#include "net/mac.h"

#include <cassert>
#include <memory>
#include <utility>

#include "net/node.h"
#include "net/packet_pool.h"
#include "obs/tracer.h"

namespace diknn {

Mac::Mac(Node* node, Channel* channel, Simulator* sim, MacParams params,
         Rng rng)
    : node_(node),
      channel_(channel),
      sim_(sim),
      params_(params),
      rng_(rng),
      next_uid_base_(0) {}

AllocCounters* Mac::net_allocs() const {
  return channel_ != nullptr ? &channel_->net_allocs() : nullptr;
}

void Mac::Send(Packet packet, EnergyCategory category,
               SendCallback callback) {
  // uid layout: node id in the high bits keeps uids globally unique, which
  // the receiver-side duplicate window relies on.
  packet.uid = (static_cast<uint64_t>(static_cast<uint32_t>(node_->id()))
                << 40) |
               ++next_uid_base_;
  packet.src = node_->id();
  packet.category = category;

  ++stats_.frames_queued;
  queue_.push_back(OutFrame{std::move(packet), category,
                            std::move(callback),
                            params_.max_frame_retries});
  if (!busy_) StartCsma();
}

void Mac::StartCsma() {
  assert(!queue_.empty());
  busy_ = true;
  ++csma_generation_;
  CsmaAttempt(/*backoffs_done=*/0, /*be=*/params_.min_be);
}

void Mac::CsmaAttempt(int backoffs_done, int be) {
  const int max_slots = (1 << be) - 1;
  const double backoff =
      params_.backoff_slot_s * rng_.UniformInt(0, max_slots);
  const uint64_t generation = csma_generation_;
  sim_->ScheduleAfter(backoff, [this, backoffs_done, be, generation]() {
    AllocScope alloc_scope(net_allocs());
    if (generation != csma_generation_) return;  // Superseded round.
    if (queue_.empty() || !node_->alive()) {
      busy_ = false;
      return;
    }
    if (!channel_->IsBusyAt(node_->Position())) {
      TransmitHead();
      return;
    }
    if (backoffs_done + 1 > params_.max_csma_backoffs) {
      // Channel access failure: spend a retry, or give up on the frame.
      ++stats_.csma_failures;
      OutFrame& head = queue_.front();
      Tracer* tracer = channel_->tracer();
      if (tracer != nullptr && head.packet.trace.sampled()) {
        tracer->AddEvent(head.packet.trace, TraceEventKind::kCsmaFailure,
                         sim_->Now(), node_->id());
      }
      if (head.retries_left > 0) {
        --head.retries_left;
        ++stats_.retries;
        if (tracer != nullptr && head.packet.trace.sampled()) {
          tracer->AddEvent(head.packet.trace, TraceEventKind::kMacRetry,
                           sim_->Now(), node_->id(),
                           params_.max_frame_retries - head.retries_left);
        }
        StartCsma();
      } else {
        CompleteHead(false);
      }
      return;
    }
    CsmaAttempt(backoffs_done + 1, std::min(be + 1, params_.max_be));
  });
}

void Mac::TransmitHead() {
  OutFrame& head = queue_.front();
  ++stats_.tx_attempts;
  channel_->Transmit(node_, head.packet);
  const double duration = channel_->FrameDuration(head.packet.size_bytes);

  if (head.packet.IsBroadcast()) {
    // Broadcasts are unacknowledged: done when the frame leaves the air.
    sim_->ScheduleAfter(duration, [this]() {
      AllocScope alloc_scope(net_allocs());
      CompleteHead(true);
    });
    return;
  }

  // Unicast: wait for the MAC ACK.
  awaiting_ack_uid_ = head.packet.uid;
  ack_timeout_event_ = sim_->ScheduleAfter(
      duration + params_.ack_timeout_s, [this]() {
        AllocScope alloc_scope(net_allocs());
        OnAckTimeout();
      });
}

void Mac::OnAckTimeout() {
  awaiting_ack_uid_ = 0;
  ack_timeout_event_ = 0;
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  OutFrame& head = queue_.front();
  if (head.retries_left > 0) {
    --head.retries_left;
    ++stats_.retries;
    Tracer* tracer = channel_->tracer();
    if (tracer != nullptr && head.packet.trace.sampled()) {
      tracer->AddEvent(head.packet.trace, TraceEventKind::kMacRetry,
                       sim_->Now(), node_->id(),
                       params_.max_frame_retries - head.retries_left);
    }
    StartCsma();
  } else {
    CompleteHead(false);
  }
}

void Mac::CompleteHead(bool success) {
  assert(!queue_.empty());
  OutFrame frame = std::move(queue_.front());
  queue_.pop_front();
  ++csma_generation_;  // Invalidate any in-flight backoff events.
  awaiting_ack_uid_ = 0;
  if (ack_timeout_event_ != 0) {
    sim_->Cancel(ack_timeout_event_);
    ack_timeout_event_ = 0;
  }
  if (!success) ++stats_.send_failures;

  if (!queue_.empty()) {
    StartCsma();
  } else {
    busy_ = false;
  }
  // Invoke the callback last: it may enqueue new frames re-entrantly.
  if (frame.callback) frame.callback(success);
}

bool Mac::FilterReceive(const Packet& packet) {
  if (packet.type == MessageType::kMacAck) {
    if (packet.dst == node_->id() && awaiting_ack_uid_ != 0) {
      const auto* ack = static_cast<const AckMessage*>(packet.payload.get());
      if (ack != nullptr && ack->acked_uid == awaiting_ack_uid_) {
        CompleteHead(true);
      }
    }
    return true;  // ACKs never reach the protocol layer.
  }

  if (!packet.IsBroadcast()) {
    if (packet.dst != node_->id()) return true;  // Overheard, discard.

    // Acknowledge after the fixed turnaround, bypassing CSMA (802.15.4
    // ACK behaviour). The ACK is a real frame and may itself collide.
    // Only the scalars needed to rebuild the ACK are captured (the uid is
    // drawn now to keep the uid stream identical to queuing-time
    // assignment); the payload comes from the message pool at send time.
    const uint64_t ack_uid =
        (static_cast<uint64_t>(static_cast<uint32_t>(node_->id())) << 40) |
        ++next_uid_base_;
    sim_->ScheduleAfter(
        params_.ack_turnaround_s,
        [this, dst = packet.src, acked_uid = packet.uid, ack_uid,
         category = packet.category, trace = packet.trace]() {
          if (!node_->alive()) return;
          AllocScope alloc_scope(net_allocs());
          Packet ack;
          ack.src = node_->id();
          ack.dst = dst;
          ack.type = MessageType::kMacAck;
          ack.size_bytes = params_.ack_bytes;
          ack.payload = MessagePool::Make<AckMessage>(acked_uid);
          ack.uid = ack_uid;
          ack.category = category;
          // ACKs inherit the frame's trace tag so their collisions
          // attribute to the same query.
          ack.trace = trace;
          channel_->Transmit(node_, ack);
        });
  }

  // Duplicate suppression, for the frames that can arrive twice: a
  // unicast, which the sender retransmits when its ACK is lost, and a
  // frame the channel's fault hook re-aired. The MAC airs a plain
  // broadcast once, so its uid never repeats here and it skips the window.
  if ((!packet.IsBroadcast() || packet.reaired) &&
      seen_.CheckAndInsert(packet.uid)) {
    ++stats_.duplicates_dropped;
    return true;
  }
  return false;
}

bool Mac::DuplicateWindow::CheckAndInsert(uint64_t uid) {
  size_t slot = Home(uid);
  for (; index_[slot] != kEmpty; slot = (slot + 1) & kSlotMask) {
    if (ring_[index_[slot]] == uid) return true;
  }
  // A full window evicts its oldest uid, the one at `next_`. Evicting
  // before inserting keeps exactly the last kCapacity uids, as inserting
  // first would: the new uid is never already present. The eviction can
  // free a slot earlier on the uid's probe path, so the probe is redone.
  if (count_ == kCapacity) {
    EraseIndexOf(next_);
    slot = Home(uid);
    while (index_[slot] != kEmpty) slot = (slot + 1) & kSlotMask;
  } else {
    ++count_;
  }
  ring_[next_] = uid;
  index_[slot] = next_;
  next_ = static_cast<uint16_t>((next_ + 1) & (kCapacity - 1));
  return false;
}

void Mac::DuplicateWindow::EraseIndexOf(uint16_t pos) {
  size_t hole = Home(ring_[pos]);
  while (index_[hole] != pos) hole = (hole + 1) & kSlotMask;
  for (size_t j = (hole + 1) & kSlotMask; index_[j] != kEmpty;
       j = (j + 1) & kSlotMask) {
    // The entry at j may fill the hole only if its home slot does not lie
    // cyclically in (hole, j]; otherwise lookups would miss it.
    const size_t home = Home(ring_[index_[j]]);
    if (((j - home) & kSlotMask) >= ((j - hole) & kSlotMask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = kEmpty;
}

}  // namespace diknn
