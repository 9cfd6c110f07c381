// Packet framing for the simulated wireless network.
//
// Payloads are ordinary C++ objects passed by shared_ptr between simulated
// nodes; the over-the-air cost is modeled separately by `size_bytes`, which
// every protocol sets to the byte count its real message would occupy
// (header + body). The channel charges time and energy from `size_bytes`.

#ifndef DIKNN_NET_PACKET_H_
#define DIKNN_NET_PACKET_H_

#include <cstdint>
#include <memory>
#include <string>

#include "net/energy_model.h"
#include "obs/trace_context.h"

namespace diknn {

/// Node identifier. Ids are dense indices assigned by the Network.
using NodeId = int;

/// Destination id used for local one-hop broadcasts.
inline constexpr NodeId kBroadcastId = -1;

/// Invalid / unset node id.
inline constexpr NodeId kInvalidNodeId = -2;

/// Base class for protocol message bodies. Protocols subclass this and
/// downcast on receive using the packet's `type` tag.
struct Message {
  virtual ~Message() = default;
};

/// Message type tags. Grouped by subsystem so dispatch tables stay readable.
enum class MessageType : uint16_t {
  // net/
  kBeacon = 1,
  kMacAck = 2,

  // routing/ (GPSR)
  kGeoRouted = 10,

  // knn/ (DIKNN)
  kDiknnQuery = 19,  ///< Geo-routed query bootstrap (sink -> home node).
  kDiknnProbe = 20,
  kDiknnDataReply = 21,
  kDiknnForward = 22,
  kDiknnRendezvous = 23,
  kDiknnResult = 24,

  // baselines/ KPT
  kKptQuery = 29,  ///< Geo-routed query bootstrap (sink -> home node).
  kKptTreeBuild = 30,
  kKptTreeAck = 31,
  kKptAggregate = 32,
  kKptResult = 33,

  // baselines/ Peer-tree
  kPeerRegister = 40,
  kPeerQuery = 41,
  kPeerProbe = 42,
  kPeerReply = 43,
  kPeerResult = 44,

  // baselines/ flooding
  kFloodQuery = 50,
  kFloodReply = 51,

  // knn/ itinerary window queries
  kWindowQuery = 60,   ///< Geo-routed bootstrap (sink -> window entry).
  kWindowProbe = 61,
  kWindowReply = 62,
  kWindowForward = 63,
  kWindowResult = 64,

  // baselines/ centralized index
  kCentralUpdate = 70,
  kCentralQuery = 71,
  kCentralResult = 72,

  // knn/ itinerary aggregate queries
  kAggQuery = 80,
  kAggProbe = 81,
  kAggReply = 82,
  kAggForward = 83,
  kAggResult = 84,
};

/// One past the largest MessageType value. Dispatch tables (per-node
/// protocol handlers, GPSR delivery handlers) are flat arrays indexed by
/// the type tag; bump this when adding message types past kAggResult.
inline constexpr size_t kMessageTypeSpan =
    static_cast<size_t>(MessageType::kAggResult) + 1;

/// Returns a short human-readable tag name for traces.
const char* MessageTypeName(MessageType type);

/// One over-the-air frame.
struct Packet {
  NodeId src = kInvalidNodeId;       ///< Transmitting node.
  NodeId dst = kBroadcastId;         ///< Receiver id or kBroadcastId.
  MessageType type = MessageType::kBeacon;
  /// Set by the channel, and only by it, on both copies of a frame its
  /// fault hook duplicates: such a frame reaches each receiver twice
  /// with one uid, so the receiver MAC's duplicate window must see it
  /// even when it is a broadcast (docs/PACKET_PLANE.md). Simulation
  /// metadata like `category`; it sits in padding after `type`.
  bool reaired = false;
  size_t size_bytes = 0;             ///< Modeled over-the-air size.
  std::shared_ptr<const Message> payload;
  uint64_t uid = 0;                  ///< Unique per logical frame; retries
                                     ///  reuse it (enables dedup + ACKs).
  /// Accounting bucket: carried as simulation metadata so receivers charge
  /// reception to the same bucket the sender charged transmission to.
  EnergyCategory category = EnergyCategory::kQuery;
  /// Trace attribution: which traced query (and span) this frame serves.
  /// Simulation metadata like `category` — never counted in `size_bytes`,
  /// never consulted by protocol logic.
  TraceContext trace;

  bool IsBroadcast() const { return dst == kBroadcastId; }
};

/// Byte-size constants shared by the protocols, roughly matching 802.15.4
/// frame layouts. The paper's "query response size of each sensor node is
/// 10 bytes" maps to kQueryResponseBytes.
inline constexpr size_t kMacHeaderBytes = 11;    ///< 802.15.4 MHR + FCS.
inline constexpr size_t kPositionBytes = 8;      ///< Two 4-byte coords.
inline constexpr size_t kNodeIdBytes = 2;
inline constexpr size_t kQueryResponseBytes = 10;

}  // namespace diknn

#endif  // DIKNN_NET_PACKET_H_
