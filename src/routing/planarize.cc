#include "routing/planarize.h"

#include "core/alloc_probe.h"

namespace diknn {

void GabrielNeighborsInto(const Point& self,
                          const std::vector<NeighborEntry>& neighbors,
                          std::vector<NeighborEntry>* out) {
  out->clear();
  if (out->capacity() < neighbors.size()) {
    // The caller passes a persistent scratch; growth past its previous
    // high-water mark is retained capacity, not a per-hop transient.
    AllocScopePause capacity;
    out->reserve(neighbors.size());
  }
  for (const NeighborEntry& v : neighbors) {
    const Point mid = Lerp(self, v.position, 0.5);
    const double radius2 = SquaredDistance(self, v.position) / 4.0;
    bool witnessed = false;
    for (const NeighborEntry& w : neighbors) {
      if (w.id == v.id) continue;
      if (SquaredDistance(w.position, mid) < radius2) {
        witnessed = true;
        break;
      }
    }
    if (!witnessed) out->push_back(v);
  }
}

std::vector<NeighborEntry> GabrielNeighbors(
    const Point& self, const std::vector<NeighborEntry>& neighbors) {
  std::vector<NeighborEntry> out;
  GabrielNeighborsInto(self, neighbors, &out);
  return out;
}

}  // namespace diknn
