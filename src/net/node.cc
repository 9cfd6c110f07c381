#include "net/node.h"

#include <cassert>

#include "core/logging.h"

namespace diknn {

Node::Node(NodeId id, Simulator* sim, Channel* channel,
           std::unique_ptr<MobilityModel> mobility, const NodeParams& params,
           Rng rng)
    : id_(id),
      sim_(sim),
      channel_(channel),
      mobility_(std::move(mobility)),
      neighbors_(params.neighbor_timeout),
      energy_(params.energy),
      rng_(rng),
      mac_(this, channel, sim, params.mac, rng_.Fork()) {}

void Node::PinPosition(const Point& p) {
  position_pinned_ = true;
  pinned_position_ = p;
  if (channel_ != nullptr) channel_->RebucketNode(this, p);
}

void Node::ClearPinnedPosition() {
  if (!position_pinned_) return;
  position_pinned_ = false;
  if (channel_ != nullptr) channel_->RebucketNode(this, Position());
}

void Node::RegisterHandler(MessageType type, Handler handler) {
  const size_t index = static_cast<size_t>(type);
  assert(index < kMessageTypeSpan && "MessageType outside dispatch table");
  handlers_[index] = std::move(handler);
}

void Node::SendUnicast(NodeId dst, MessageType type,
                       std::shared_ptr<const Message> payload,
                       size_t body_bytes, EnergyCategory category,
                       Mac::SendCallback callback, TraceContext trace) {
  if (!alive_) {
    if (callback) callback(false);
    return;
  }
  Packet p;
  p.dst = dst;
  p.type = type;
  p.payload = std::move(payload);
  p.size_bytes = body_bytes + kMacHeaderBytes;
  p.trace = trace;
  mac_.Send(std::move(p), category, std::move(callback));
}

void Node::SendBroadcast(MessageType type,
                         std::shared_ptr<const Message> payload,
                         size_t body_bytes, EnergyCategory category,
                         Mac::SendCallback callback, TraceContext trace) {
  if (!alive_) {
    if (callback) callback(false);
    return;
  }
  Packet p;
  p.dst = kBroadcastId;
  p.type = type;
  p.payload = std::move(payload);
  p.size_bytes = body_bytes + kMacHeaderBytes;
  p.trace = trace;
  mac_.Send(std::move(p), category, std::move(callback));
}

void Node::HandlePhyReceive(const Packet& packet) {
  if (!alive_) return;
  if (mac_.FilterReceive(packet)) return;

  const size_t index = static_cast<size_t>(packet.type);
  if (index >= kMessageTypeSpan || !handlers_[index]) {
    DIKNN_LOG(kDebug) << "node " << id_ << ": no handler for "
                      << MessageTypeName(packet.type);
    return;
  }
  handlers_[index](packet);
}

}  // namespace diknn
