// Per-node neighbor table, populated from periodic location beacons.
//
// Section 3.1 of the paper: "Beacons with locations and identities (IDs)
// are periodically broadcasted. Every sensor node also maintains a table
// enrolling IDs and locations of neighbor nodes falling within its radio
// range r." Entries expire after a staleness timeout (several beacon
// periods), so nodes that moved away or died disappear from the table.
//
// Layout (docs/PACKET_PLANE.md): struct-of-arrays. The geometric scans
// that dominate the hot path — greedy next-hop selection, boundary
// estimation, planarization — touch only the position lane, so entries
// are stored as three parallel flat vectors in insertion order. There is
// no id index: a table holds only the neighbors heard within the timeout
// (both engines expire a node's table periodically, ~20–32 entries at
// Section 5.1 density), so an id is found by scanning the id lane,
// sixteen and then four ids per step where SSE2 is available. Insertion
// order is preserved across erasure (lanes are compacted, not
// swap-erased), which makes iteration order a pure function of the beacon
// history and keeps runs bit-identical across --jobs counts; a neighbor
// heard again after it expired is appended at the end. In steady state
// (table grown to its high-water capacity) updates, removals, expiry
// sweeps and scans allocate nothing.

#ifndef DIKNN_NET_NEIGHBOR_TABLE_H_
#define DIKNN_NET_NEIGHBOR_TABLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/geometry.h"
#include "net/packet.h"
#include "sim/event_queue.h"

namespace diknn {

/// One known neighbor, as last heard from.
struct NeighborEntry {
  NodeId id = kInvalidNodeId;
  Point position;          ///< Position advertised in the last beacon.
  SimTime last_heard = 0;  ///< Time the last beacon arrived.
};

/// Neighbor table with staleness-based eviction.
class NeighborTable {
 public:
  /// `timeout`: entries unheard-of for longer than this are dropped.
  explicit NeighborTable(SimTime timeout = 1.5) : timeout_(timeout) {}

  /// Inserts or refreshes an entry from a beacon heard at time `now`.
  void Update(NodeId id, Point position, SimTime now);

  /// The id lane, which Update, Lookup and Remove scan from its start, or
  /// nullptr while the table is empty. A caller that knows a sender ahead
  /// of its Update can prefetch it.
  const NodeId* FirstProbe() const {
    return ids_.empty() ? nullptr : ids_.data();
  }

  /// Removes a neighbor explicitly (e.g., unicast to it failed).
  void Remove(NodeId id);

  /// Drops entries older than the timeout relative to `now`.
  void Expire(SimTime now);

  /// Live entry for `id`, if present and fresh at `now`.
  std::optional<NeighborEntry> Lookup(NodeId id, SimTime now) const;

  /// Clears `out` and fills it with all fresh entries at `now`, in table
  /// (insertion) order. Reusing `out` across calls makes this
  /// allocation-free once it has reached its high-water capacity.
  void SnapshotInto(SimTime now, std::vector<NeighborEntry>* out) const;

  /// Calls `fn(const NeighborEntry&)` for every fresh entry at `now`, in
  /// table order, without materializing a snapshot.
  template <typename Fn>
  void ForEachFresh(SimTime now, Fn&& fn) const {
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (!FreshAt(i, now)) continue;
      fn(NeighborEntry{ids_[i], positions_[i], last_heard_[i]});
    }
  }

  /// Number of fresh entries at `now`.
  int CountFresh(SimTime now) const;

  /// Fresh neighbor geometrically closest to `target`; nullopt if empty.
  std::optional<NeighborEntry> ClosestTo(const Point& target,
                                         SimTime now) const;

  /// Counts fresh neighbors farther than `radius` from `from` — the
  /// "newly encountered neighbors" enc_i of the paper's Section 4.1.
  int CountFartherThan(const Point& from, double radius, SimTime now) const;

 private:
  bool FreshAt(size_t i, SimTime now) const {
    return now - last_heard_[i] <= timeout_;
  }

  // Lane position of `id`, or ids_.size() if absent.
  size_t Find(NodeId id) const;

  SimTime timeout_;
  // Parallel lanes, insertion-ordered; ids are distinct.
  std::vector<NodeId> ids_;
  std::vector<Point> positions_;
  std::vector<SimTime> last_heard_;
};

}  // namespace diknn

#endif  // DIKNN_NET_NEIGHBOR_TABLE_H_
