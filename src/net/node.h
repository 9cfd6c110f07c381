// A simulated sensor node: position, radio, neighbor table, energy meter,
// and a registry of protocol handlers.

#ifndef DIKNN_NET_NODE_H_
#define DIKNN_NET_NODE_H_

#include <array>
#include <functional>
#include <memory>
#include <utility>

#include "core/geometry.h"
#include "core/rng.h"
#include "net/channel.h"
#include "net/energy_model.h"
#include "net/mac.h"
#include "net/mobility.h"
#include "net/neighbor_table.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace diknn {

/// Per-node configuration.
struct NodeParams {
  EnergyParams energy;
  MacParams mac;
  SimTime neighbor_timeout = 1.5;  ///< 3x the default 0.5 s beacon period.
};

/// One sensor node. Owned by the Network; protocols interact with nodes
/// through this interface and never touch the channel or MAC directly.
class Node {
 public:
  /// Handler invoked for received protocol frames of a registered type.
  using Handler = std::function<void(const Packet&)>;

  Node(NodeId id, Simulator* sim, Channel* channel,
       std::unique_ptr<MobilityModel> mobility, const NodeParams& params,
       Rng rng);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  Simulator* sim() { return sim_; }

  /// The shared medium this node is attached to (nullptr in detached test
  /// rigs). Gives the MAC and beacon layers access to the channel's
  /// packet-plane allocation scope.
  Channel* channel() const { return channel_; }

  /// True position right now (nodes are location-aware per Section 3.1).
  Point Position() const {
    return position_pinned_ ? pinned_position_
                            : mobility_->PositionAt(sim_->Now());
  }

  /// Current scalar speed (m/s).
  double Speed() const {
    return position_pinned_ ? 0.0 : mobility_->SpeedAt(sim_->Now());
  }

  /// Lifetime upper bound on this node's speed (m/s); the channel's
  /// spatial grid sizes its cells from the fleet-wide maximum.
  double MaxSpeed() const { return mobility_->MaxSpeed(); }

  NeighborTable& neighbors() { return neighbors_; }
  const NeighborTable& neighbors() const { return neighbors_; }
  EnergyMeter& energy() { return energy_; }
  const EnergyMeter& energy() const { return energy_; }
  Mac& mac() { return mac_; }
  const Mac& mac() const { return mac_; }
  Rng& rng() { return rng_; }

  /// Failure injection: a dead node neither transmits nor receives.
  bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  /// Fault injection: pins the node at `p` — Position() returns `p` and
  /// Speed() 0 until the pin is cleared — and re-buckets the channel's
  /// spatial grid (a teleport can cross cells instantly). Used to freeze
  /// or teleport the sink mid-run.
  void PinPosition(const Point& p);

  /// Resumes the mobility model from its own (lazily advanced) trajectory.
  void ClearPinnedPosition();

  bool position_pinned() const { return position_pinned_; }

  /// Infrastructure nodes (e.g. Peer-tree's stationary clusterheads) take
  /// part in the network but are not KNN candidates and are excluded from
  /// the ground-truth oracle.
  bool is_infrastructure() const { return infrastructure_; }
  void set_infrastructure(bool value) { infrastructure_ = value; }

  /// Registers the handler for a message type, replacing any previous one.
  void RegisterHandler(MessageType type, Handler handler);

  /// Sends a unicast frame to `dst` carrying `payload`. `body_bytes` is the
  /// modeled payload size; the MAC header is added automatically. The
  /// optional callback reports delivery success after MAC retries. `trace`
  /// attributes the frame (and its MAC retries/collisions) to a traced
  /// query; it is metadata and never affects the modeled size.
  void SendUnicast(NodeId dst, MessageType type,
                   std::shared_ptr<const Message> payload, size_t body_bytes,
                   EnergyCategory category, Mac::SendCallback callback = {},
                   TraceContext trace = {});

  /// Sends a one-hop broadcast (unacknowledged).
  void SendBroadcast(MessageType type, std::shared_ptr<const Message> payload,
                     size_t body_bytes, EnergyCategory category,
                     Mac::SendCallback callback = {}, TraceContext trace = {});

  /// Entry point from the Channel when a frame reaches this node's radio.
  void HandlePhyReceive(const Packet& packet);

 private:
  // The channel filters ~74 candidates per frame on alive() and
  // Position(), so everything those two read sits at the front, ahead of
  // the 3.3 KB Mac.
  NodeId id_;
  bool alive_ = true;
  bool position_pinned_ = false;
  Simulator* sim_;
  Channel* channel_;
  std::unique_ptr<MobilityModel> mobility_;
  Point pinned_position_;
  NeighborTable neighbors_;
  EnergyMeter energy_;
  Rng rng_;
  Mac mac_;
  bool infrastructure_ = false;
  // Dispatch table indexed by MessageType value: receive dispatch is an
  // array load instead of a tree walk, and registration order can never
  // influence behavior (there is nothing to iterate).
  std::array<Handler, kMessageTypeSpan> handlers_;
};

}  // namespace diknn

#endif  // DIKNN_NET_NODE_H_
