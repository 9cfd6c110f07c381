#include "routing/gpsr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/alloc_probe.h"
#include "core/logging.h"
#include "net/packet_pool.h"
#include "obs/tracer.h"
#include "routing/greedy.h"
#include "routing/planarize.h"

namespace diknn {

size_t GeoRoutedMessage::WireBytes() const {
  // destination + mode/ttl + perimeter entry point + two node ids + list
  // length, plus the payload and the accumulated info list.
  size_t bytes = kPositionBytes + 2 + kPositionBytes + 3 * kNodeIdBytes + 2;
  bytes += inner_bytes;
  if (collect_info) bytes += info_list.size() * kRouteHopInfoBytes;
  return bytes;
}

namespace {

// Geocast shortcut: a greedy local minimum within this fraction of the
// radio range of the destination delivers immediately instead of walking
// the perimeter. The local minimum is within ~r of every node on its face,
// so it is the destination's home node for all practical purposes; the
// full face walk (~8 hops) is only worth its cost when the packet is still
// far away (a true void). DESIGN.md §6 deviation 3.
constexpr double kDirectDeliveryFraction = 0.75;

}  // namespace

GpsrRouting::GpsrRouting(Network* network) : network_(network) {
  // Hop budget: max(96, 8 * diagonal / r), enough for greedy progress
  // plus perimeter walks around large voids without letting stranded
  // packets wander forever on small fields.
  const Rect& field = network_->config().field;
  const double diagonal = std::hypot(field.Width(), field.Height());
  ttl_ = std::max(
      96, static_cast<int>(8.0 * diagonal / network_->config().radio_range_m));
  // Size the fork-suppression table and its eviction FIFO once;
  // steady-state flow churn then never rehashes or grows the ring (the +1
  // covers the transient insert-before-evict).
  flow_progress_.reserve(kFlowCapacity + 1);
  flow_order_.reserve(kFlowCapacity + 1);
}

void GpsrRouting::Install() {
  for (Node* node : network_->AllNodes()) {
    node->RegisterHandler(
        MessageType::kGeoRouted, [this, node](const Packet& p) {
          const auto* received =
              static_cast<const GeoRoutedMessage*>(p.payload.get());
          // Collapse token forks: only arrivals that advance the flow's
          // hop counter are processed.
          auto [kv, inserted] = flow_progress_.TryEmplace(
              received->flow_id, received->hop_index);
          if (inserted) {
            flow_order_.push_back(received->flow_id);
            if (flow_order_.size() > kFlowCapacity) {
              flow_progress_.erase(flow_order_.front());
              flow_order_.pop_front();
            }
          } else {
            if (received->hop_index <= kv->second) {
              ++stats_.forks_suppressed;
              return;
            }
            kv->second = received->hop_index;
          }
          // Copy the routing envelope: state mutates per hop, while the
          // received payload is shared and immutable. The copy target is
          // a recycled pool object (its info-list capacity survives), so
          // the assignment only allocates while that capacity still grows.
          auto msg = MessagePool::MakeReusable<GeoRoutedMessage>();
          {
            AllocScopePause capacity;
            *msg = *received;
          }
          Forward(node, std::move(msg), p.category);
        });
  }
}

void GpsrRouting::RegisterDelivery(MessageType inner_type,
                                   DeliveryHandler handler) {
  const size_t index = static_cast<size_t>(inner_type);
  assert(index < kMessageTypeSpan && "MessageType outside dispatch table");
  deliveries_[index] = std::move(handler);
}

void GpsrRouting::Send(Node* src, Point destination, MessageType inner_type,
                       std::shared_ptr<const Message> inner,
                       size_t inner_bytes, EnergyCategory category,
                       bool collect_info, NodeId target_node,
                       bool cheap_delivery, TraceContext trace) {
  auto msg = MessagePool::MakeReusable<GeoRoutedMessage>();
  msg->destination = destination;
  msg->target_node = target_node;
  msg->cheap_delivery = cheap_delivery;
  msg->inner_type = inner_type;
  msg->inner = std::move(inner);
  msg->inner_bytes = inner_bytes;
  msg->ttl = ttl_;
  msg->collect_info = collect_info;
  msg->flow_id = next_flow_id_++;
  msg->trace = trace;
  ++stats_.sends;
  Forward(src, std::move(msg), category);
}

void GpsrRouting::AppendHopInfo(Node* node, GeoRoutedMessage* msg,
                                double radio_range) {
  const SimTime now = node->sim()->Now();
  RouteHopInfo info;
  info.location = node->Position();
  if (msg->info_list.empty()) {
    // First hop: every neighbor is newly encountered.
    info.encountered = node->neighbors().CountFresh(now);
  } else {
    // Count neighbors beyond radio range of the previous hop's node — the
    // paper's duplicate-avoidance rule for enc_i (Section 4.1).
    info.encountered = node->neighbors().CountFartherThan(
        msg->info_list.back().location, radio_range, now);
  }
  // The info list rides a recycled envelope; growth past the envelope's
  // previous high water is capacity, not a per-hop transient.
  AllocScopePause capacity;
  msg->info_list.push_back(info);
}

void GpsrRouting::Forward(Node* node, std::shared_ptr<GeoRoutedMessage> msg,
                          EnergyCategory category) {
  const SimTime now = node->sim()->Now();
  const Point self = node->Position();
  const Point& dest = msg->destination;

  if (msg->collect_info) {
    AppendHopInfo(node, msg.get(), network_->config().radio_range_m);
  }

  if (msg->ttl <= 0) {
    ++stats_.ttl_expired;
    Deliver(node, *msg);
    return;
  }

  // Node-addressed routing: deliver at the target itself, or short-circuit
  // when the target shows up in the local neighbor table.
  if (msg->target_node != kInvalidNodeId) {
    if (node->id() == msg->target_node) {
      Deliver(node, *msg);
      return;
    }
    if (node->neighbors().Lookup(msg->target_node, now).has_value()) {
      --msg->ttl;
      ++stats_.greedy_hops;
      const NodeId target = msg->target_node;
      SendToNeighbor(node, target, std::move(msg), category);
      return;
    }
  }

  const double d_self = Distance(self, dest);

  // Perimeter-mode bookkeeping: resume greedy once we are closer to the
  // destination than where we entered the perimeter walk.
  if (msg->mode == GeoRoutedMessage::Mode::kPerimeter) {
    if (d_self < Distance(msg->perimeter_entry, dest)) {
      msg->mode = GeoRoutedMessage::Mode::kGreedy;
    } else if (msg->perimeter_hops > 0 &&
               node->id() == msg->perimeter_entry_node) {
      // Walked the whole face back to the entry node: it is the closest
      // node to the destination in this region — deliver here.
      Deliver(node, *msg);
      return;
    }
  }

  // Scratch reuse is safe: every nested Forward (delivery handler sending,
  // dead-node synchronous failure callback) happens after this call's last
  // read of the buffers.
  std::vector<NeighborEntry>& neighbors = neighbors_scratch_;
  node->neighbors().SnapshotInto(now, &neighbors);
  if (neighbors.empty()) {
    ++stats_.dropped_no_neighbor;
    Deliver(node, *msg);  // Isolated node: best effort delivery in place.
    return;
  }

  if (msg->mode == GeoRoutedMessage::Mode::kGreedy) {
    // Greedy: strictly closer neighbor with the best progress, previous
    // hop excluded (routing/greedy.h — the same rule the parallel query
    // plane applies, so forwarding behaviour is engine-independent).
    const NeighborEntry* best =
        GreedyNextHop(neighbors, dest, d_self, msg->prev_hop);
    if (best != nullptr) {
      ++stats_.greedy_hops;
      --msg->ttl;
      SendToNeighbor(node, best->id, std::move(msg), category);
      return;
    }
    // Local minimum. Close enough to the destination point? Then this is
    // its home node: deliver without the ceremonial face walk — unless
    // the message is node-addressed and the target is not in this node's
    // (possibly beacon-gapped) table: the perimeter walk consults the
    // neighboring tables and almost always finds the target.
    if ((msg->target_node == kInvalidNodeId || msg->cheap_delivery) &&
        d_self <= kDirectDeliveryFraction *
                      network_->config().radio_range_m) {
      Deliver(node, *msg);
      return;
    }
    // Otherwise walk the perimeter around the void; the entry-node return
    // rule above delivers here if the whole face is farther away.
    msg->mode = GeoRoutedMessage::Mode::kPerimeter;
    msg->perimeter_entry = self;
    msg->perimeter_entry_node = node->id();
    msg->perimeter_hops = 0;
    if (tracer_ != nullptr && msg->trace.sampled()) {
      tracer_->AddEvent(msg->trace, TraceEventKind::kPerimeterEnter, now,
                        node->id());
    }
  }

  // Perimeter mode: right-hand rule on the planarized neighbor set.
  std::vector<NeighborEntry>& planar = planar_scratch_;
  GabrielNeighborsInto(self, neighbors, &planar);
  if (planar.empty()) {
    ++stats_.dropped_no_neighbor;
    Deliver(node, *msg);
    return;
  }

  // Reference direction: the edge we arrived on, or toward the
  // destination when starting the walk at the local minimum.
  const double ref_angle =
      (msg->prev_hop != kInvalidNodeId && msg->perimeter_hops > 0)
          ? AngleOf(self, msg->prev_hop_position)
          : AngleOf(self, dest);

  // First edge counter-clockwise from the reference direction. The
  // incoming edge itself (delta == 0) is taken only as a last resort.
  const NeighborEntry* next = nullptr;
  double best_delta = std::numeric_limits<double>::infinity();
  for (const NeighborEntry& n : planar) {
    double delta = NormalizeAngle(AngleOf(self, n.position) - ref_angle);
    if (n.id == msg->prev_hop || delta == 0.0) delta += kTwoPi;
    if (delta < best_delta) {
      best_delta = delta;
      next = &n;
    }
  }
  assert(next != nullptr);

  ++stats_.perimeter_hops;
  ++msg->perimeter_hops;
  --msg->ttl;
  SendToNeighbor(node, next->id, std::move(msg), category);
}

void GpsrRouting::SendToNeighbor(Node* node, NodeId next,
                                 std::shared_ptr<GeoRoutedMessage> msg,
                                 EnergyCategory category) {
  msg->prev_hop = node->id();
  msg->prev_hop_position = node->Position();
  ++msg->hop_index;
  const size_t bytes = msg->WireBytes();
  node->SendUnicast(
      next, MessageType::kGeoRouted, msg, bytes, category,
      [this, node, next, msg, category](bool success) {
        if (success) return;
        // The neighbor moved away or its link is too lossy: evict it and
        // re-route from this node — unless the "failed" recipient actually
        // got the frame (lost ACK) and the token is already ahead of us.
        ++stats_.link_failures;
        const int* progress = flow_progress_.find(msg->flow_id);
        if (progress != nullptr && *progress >= msg->hop_index) {
          ++stats_.forks_suppressed;
          return;
        }
        if (tracer_ != nullptr && msg->trace.sampled()) {
          tracer_->AddEvent(msg->trace, TraceEventKind::kReroute,
                            node->sim()->Now(), node->id(), next);
        }
        node->neighbors().Remove(next);
        auto retry = MessagePool::MakeReusable<GeoRoutedMessage>();
        {
          // Recycled envelope: the copy only allocates while the pooled
          // object's info-list capacity is still growing.
          AllocScopePause capacity;
          *retry = *msg;
        }
        --retry->hop_index;  // Forward() re-increments on the next send.
        if (retry->collect_info && !retry->info_list.empty()) {
          // Forward() will re-append this node's entry.
          retry->info_list.pop_back();
        }
        Forward(node, std::move(retry), category);
      },
      msg->trace);
}

void GpsrRouting::Deliver(Node* node, const GeoRoutedMessage& msg) {
  ++stats_.deliveries;
  // A delivered flow is finished; suppress any straggling fork copies.
  int* progress = flow_progress_.find(msg.flow_id);
  if (progress != nullptr) {
    *progress = std::numeric_limits<int>::max();
  }
  const size_t index = static_cast<size_t>(msg.inner_type);
  if (index >= kMessageTypeSpan || !deliveries_[index]) {
    DIKNN_LOG(kWarn) << "GPSR delivery with no handler for inner type "
                     << MessageTypeName(msg.inner_type);
    return;
  }
  // The delivered payload is the protocol's work, not the packet
  // plane's: it arms its own allocation scope or none.
  AllocScopePause protocol_work;
  deliveries_[index](node, msg);
}

}  // namespace diknn
