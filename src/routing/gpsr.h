// GPSR — Greedy Perimeter Stateless Routing (Karp & Kung, MobiCom 2000).
//
// Routes a message toward a geographic point q. Each hop forwards to the
// neighbor closest to q (greedy mode); at a local minimum the packet
// switches to perimeter mode and walks the planarized face using the
// right-hand rule, resuming greedy as soon as a node closer to q than the
// perimeter entry point is reached. A packet whose perimeter walk returns
// to its entry node is *delivered there*: that node is the closest node to
// q in its connected region — exactly the "home node" DIKNN's routing
// phase needs (Section 4.1).
//
// While forwarding, GPSR optionally appends the per-hop information list L
// of DIKNN's phase 1: each relaying node records its location loc_i and
// enc_i, the number of newly-encountered neighbors (those farther than the
// radio range r from the previous hop's location).
//
// Steady-state allocation discipline (docs/PACKET_PLANE.md): routing
// envelopes come from the message pool (recycled per thread, Reuse()
// retains info-list capacity), the fork-suppression table is a flat map
// with a ring-buffer eviction FIFO, delivery dispatch is an array indexed
// by message type, and the per-hop neighbor snapshot / planarization use
// member scratch buffers — after warmup a routed hop allocates nothing.

#ifndef DIKNN_ROUTING_GPSR_H_
#define DIKNN_ROUTING_GPSR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/flat_map.h"
#include "core/geometry.h"
#include "core/ring_buffer.h"
#include "net/network.h"
#include "net/packet.h"

namespace diknn {

class Tracer;

/// One entry of DIKNN's information list L (Section 4.1).
struct RouteHopInfo {
  Point location;  ///< loc_i: position of the node triggering hop i.
  int encountered = 0;  ///< enc_i: newly encountered neighbor count.
};

/// Over-the-air size of one list entry (location + counter).
inline constexpr size_t kRouteHopInfoBytes = kPositionBytes + 2;

/// A geographically routed envelope around an application message.
struct GeoRoutedMessage : Message {
  enum class Mode { kGreedy, kPerimeter };

  Point destination;            ///< The target point q.
  /// When set, the message is for this specific node: any hop that has the
  /// target in its neighbor table short-circuits to it, and delivery at
  /// any other node means the target was not found (it moved away).
  NodeId target_node = kInvalidNodeId;
  MessageType inner_type{};     ///< Delivered to this handler on arrival.
  std::shared_ptr<const Message> inner;
  size_t inner_bytes = 0;

  // -- GPSR state carried in the packet header --
  /// Periodic, refreshable traffic (registrations, location updates) sets
  /// this: losing one instance is cheaper than perimeter-walking for it,
  /// so the direct-delivery shortcut applies even when node-addressed.
  bool cheap_delivery = false;
  /// Flow identity + hop counter. A routed message is a single logical
  /// token; when a MAC ACK is lost the sender retries via another node
  /// while the original recipient may already be forwarding, forking the
  /// token. Receivers drop arrivals whose hop_index does not advance the
  /// flow's last-seen value, collapsing forks immediately.
  uint64_t flow_id = 0;
  int hop_index = 0;
  Mode mode = Mode::kGreedy;
  Point perimeter_entry;        ///< Position where perimeter mode began.
  NodeId perimeter_entry_node = kInvalidNodeId;
  NodeId prev_hop = kInvalidNodeId;
  Point prev_hop_position;
  int perimeter_hops = 0;       ///< Hops taken in the current perimeter walk.
  int ttl = 0;

  // -- DIKNN phase-1 info list --
  bool collect_info = false;
  std::vector<RouteHopInfo> info_list;

  /// Trace attribution (simulation metadata; not counted by WireBytes).
  /// Stamped on every per-hop frame so MAC retries and collisions along
  /// the route attribute to the owning query's span.
  TraceContext trace;

  /// Modeled over-the-air byte size of the whole envelope.
  size_t WireBytes() const;

  /// MessagePool::MakeReusable contract: resets every field to its
  /// default-constructed value while keeping the info list's capacity.
  void Reuse() {
    destination = Point{};
    target_node = kInvalidNodeId;
    inner_type = MessageType{};
    inner.reset();
    inner_bytes = 0;
    cheap_delivery = false;
    flow_id = 0;
    hop_index = 0;
    mode = Mode::kGreedy;
    perimeter_entry = Point{};
    perimeter_entry_node = kInvalidNodeId;
    prev_hop = kInvalidNodeId;
    prev_hop_position = Point{};
    perimeter_hops = 0;
    ttl = 0;
    collect_info = false;
    info_list.clear();
    trace = TraceContext{};
  }
};

/// Per-network GPSR routing service. Install() registers a handler for
/// MessageType::kGeoRouted on every node; upper layers register per-inner-
/// type delivery callbacks and call Send().
class GpsrRouting {
 public:
  /// Called at the node where a routed message arrives (the home node).
  using DeliveryHandler =
      std::function<void(Node* node, const GeoRoutedMessage& msg)>;

  /// Diagnostic counters.
  struct Stats {
    uint64_t sends = 0;
    uint64_t greedy_hops = 0;
    uint64_t perimeter_hops = 0;
    uint64_t deliveries = 0;
    uint64_t ttl_expired = 0;
    uint64_t dropped_no_neighbor = 0;
    uint64_t link_failures = 0;  ///< MAC-level send failures (rerouted).
    uint64_t forks_suppressed = 0;
  };

  /// Bound on the per-flow progress table (FIFO eviction).
  static constexpr size_t kFlowCapacity = 4096;

  explicit GpsrRouting(Network* network);

  /// Registers the kGeoRouted handler on every node. Call once.
  void Install();

  /// Sets the delivery callback for an inner message type.
  void RegisterDelivery(MessageType inner_type, DeliveryHandler handler);

  /// Routes `inner` from `src` toward `destination`. The message is
  /// delivered (via the registered handler) at the node closest to the
  /// destination in `src`'s connected region. `collect_info` enables the
  /// DIKNN phase-1 information list. `target_node`, when valid, addresses
  /// a specific node expected near `destination` (used for result return
  /// to a possibly-moving sink).
  void Send(Node* src, Point destination, MessageType inner_type,
            std::shared_ptr<const Message> inner, size_t inner_bytes,
            EnergyCategory category, bool collect_info = false,
            NodeId target_node = kInvalidNodeId,
            bool cheap_delivery = false, TraceContext trace = {});

  /// Query tracer for routing events (greedy->perimeter transitions,
  /// link-failure reroutes) on traced flows. Not owned; may be null.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  const Stats& stats() const { return stats_; }

  /// Current size of the fork-suppression table; bounded by kFlowCapacity
  /// regardless of how many flows a run creates (lifecycle auditing).
  size_t FlowStateSize() const { return flow_progress_.size(); }

 private:
  // Takes one routing step at `node`; may deliver locally, forward
  // greedily, or walk the perimeter.
  void Forward(Node* node, std::shared_ptr<GeoRoutedMessage> msg,
               EnergyCategory category);

  // Delivers the inner message at `node`.
  void Deliver(Node* node, const GeoRoutedMessage& msg);

  // Appends this node's (loc, enc) entry to the info list.
  static void AppendHopInfo(Node* node, GeoRoutedMessage* msg,
                            double radio_range);

  // Transmits msg to `next`; on MAC failure evicts the neighbor and
  // re-runs Forward at the same node.
  void SendToNeighbor(Node* node, NodeId next,
                      std::shared_ptr<GeoRoutedMessage> msg,
                      EnergyCategory category);

  Network* network_;
  // Hop budget of every sent envelope; exhausted packets deliver in
  // place. Sized from the field geometry by the constructor.
  int ttl_ = 0;
  // Delivery dispatch indexed by the inner MessageType value (no ordered
  // map walk, no iteration-order sensitivity).
  std::array<DeliveryHandler, kMessageTypeSpan> deliveries_;
  Stats stats_;
  Tracer* tracer_ = nullptr;

  uint64_t next_flow_id_ = 1;
  // Last hop_index seen per flow (bounded FIFO eviction).
  FlatMap<uint64_t, int> flow_progress_;
  RingBuffer<uint64_t> flow_order_;

  // Per-hop scratch (Forward is never re-entered while these are live:
  // every nested call happens after the buffers' last read).
  std::vector<NeighborEntry> neighbors_scratch_;
  std::vector<NeighborEntry> planar_scratch_;
};

}  // namespace diknn

#endif  // DIKNN_ROUTING_GPSR_H_
