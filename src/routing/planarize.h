// Local graph planarization for GPSR perimeter mode.
//
// GPSR's face routing is only correct on a planar subgraph of the radio
// connectivity graph. Each node computes its planar edge set locally from
// its neighbor table using the Gabriel Graph (GG) criterion: the edge
// (u, v) survives iff no witness w lies strictly inside the circle whose
// diameter is uv. GG keeps connectivity and is the planarization used in
// the original GPSR paper (Karp & Kung, MobiCom 2000).

#ifndef DIKNN_ROUTING_PLANARIZE_H_
#define DIKNN_ROUTING_PLANARIZE_H_

#include <vector>

#include "core/geometry.h"
#include "net/neighbor_table.h"

namespace diknn {

/// Clears `out` and fills it with the neighbors at `self` that survive
/// Gabriel Graph planarization, computed over the given fresh-neighbor
/// snapshot. Reusing `out` keeps the per-hop planarization allocation-free
/// once it has reached its high-water capacity.
void GabrielNeighborsInto(const Point& self,
                          const std::vector<NeighborEntry>& neighbors,
                          std::vector<NeighborEntry>* out);

/// Allocating convenience (tests, offline analysis).
std::vector<NeighborEntry> GabrielNeighbors(
    const Point& self, const std::vector<NeighborEntry>& neighbors);

}  // namespace diknn

#endif  // DIKNN_ROUTING_PLANARIZE_H_
