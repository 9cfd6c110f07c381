// Greedy geographic next-hop selection, shared between the serial GPSR
// router (src/routing/gpsr.cc) and the parallel query plane
// (src/psim/query_plane.cc). Both planes must pick hops by the same rule
// — strictly closer to the destination, best progress, ties to the lower
// id, previous hop excluded — so the forwarding behaviour a test observes
// depends neither on which engine carried the packet nor on the order of
// its neighbor table.

#ifndef DIKNN_ROUTING_GREEDY_H_
#define DIKNN_ROUTING_GREEDY_H_

#include <vector>

#include "core/geometry.h"
#include "net/neighbor_table.h"
#include "net/packet.h"

namespace diknn {

/// Picks the entry of `neighbors` strictly closer to `dest` than
/// `self_distance`, minimizing the remaining distance; of two equally
/// close entries the lower id wins. `prev_hop` is
/// excluded: with beacon-stale positions the previous hop can look closer
/// than it is and cause A<->B ping-pong until the TTL burns out. Returns
/// nullptr at a local minimum (no strictly closer neighbor).
inline const NeighborEntry* GreedyNextHop(
    const std::vector<NeighborEntry>& neighbors, const Point& dest,
    double self_distance, NodeId prev_hop) {
  const NeighborEntry* best = nullptr;
  double best_d = self_distance;
  for (const NeighborEntry& n : neighbors) {
    if (n.id == prev_hop) continue;
    const double d = Distance(n.position, dest);
    if (d < best_d || (best != nullptr && d == best_d && n.id < best->id)) {
      best_d = d;
      best = &n;
    }
  }
  return best;
}

/// Same rule directly over a NeighborTable's fresh entries at `now`,
/// without materializing a snapshot (the parallel query plane's hot
/// path). Returns the best next hop's id via `out` and true, or false at
/// a local minimum.
inline bool GreedyNextHopFrom(const NeighborTable& table, const Point& self,
                              const Point& dest, NodeId prev_hop,
                              SimTime now, NeighborEntry* out) {
  double best_d = Distance(self, dest);
  bool found = false;
  table.ForEachFresh(now, [&](const NeighborEntry& n) {
    if (n.id == prev_hop) return;
    const double d = Distance(n.position, dest);
    if (d < best_d || (found && d == best_d && n.id < out->id)) {
      best_d = d;
      *out = n;
      found = true;
    }
  });
  return found;
}

}  // namespace diknn

#endif  // DIKNN_ROUTING_GREEDY_H_
