#include "net/neighbor_table.h"

#include <limits>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "core/alloc_probe.h"

namespace diknn {

size_t NeighborTable::Find(NodeId id) const {
  const NodeId* ids = ids_.data();
  const size_t n = ids_.size();
  size_t i = 0;
#ifdef __SSE2__
  static_assert(sizeof(NodeId) == 4, "the scan compares 32-bit lanes");
  const __m128i key = _mm_set1_epi32(id);
  // All ones in each 32-bit lane of ids[j..j+3] that equals id.
  const auto eq4 = [&](size_t j) {
    return _mm_cmpeq_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + j)), key);
  };
  // A hit lands at a random depth of a ~20-32 id lane, so each loop
  // branch is a likely mispredict: take one per sixteen ids, packed to
  // one mask bit per id, before the four-id and scalar tails.
  for (; i + 16 <= n; i += 16) {
    const int hits = _mm_movemask_epi8(
        _mm_packs_epi16(_mm_packs_epi32(eq4(i), eq4(i + 4)),
                        _mm_packs_epi32(eq4(i + 8), eq4(i + 12))));
    if (hits != 0) return i + static_cast<size_t>(__builtin_ctz(hits));
  }
  for (; i + 4 <= n; i += 4) {
    // Four mask bits per matching 32-bit lane; ids are distinct.
    const int hits = _mm_movemask_epi8(eq4(i));
    if (hits != 0) return i + static_cast<size_t>(__builtin_ctz(hits)) / 4;
  }
#endif
  for (; i < n; ++i) {
    if (ids[i] == id) return i;
  }
  return n;
}

void NeighborTable::Update(NodeId id, Point position, SimTime now) {
  const size_t i = Find(id);
  if (i < ids_.size()) {
    positions_[i] = position;
    last_heard_[i] = now;
    return;
  }
  // First contact: lane growth is table capacity (lanes never shrink),
  // not a per-beacon transient allocation.
  AllocScopePause capacity;
  ids_.push_back(id);
  positions_.push_back(position);
  last_heard_.push_back(now);
}

void NeighborTable::Remove(NodeId id) {
  const size_t i = Find(id);
  if (i == ids_.size()) return;
  ids_.erase(ids_.begin() + i);
  positions_.erase(positions_.begin() + i);
  last_heard_.erase(last_heard_.begin() + i);
}

void NeighborTable::Expire(SimTime now) {
  size_t w = 0;
  for (size_t r = 0; r < ids_.size(); ++r) {
    if (!FreshAt(r, now)) continue;
    if (w != r) {
      ids_[w] = ids_[r];
      positions_[w] = positions_[r];
      last_heard_[w] = last_heard_[r];
    }
    ++w;
  }
  ids_.resize(w);
  positions_.resize(w);
  last_heard_.resize(w);
}

std::optional<NeighborEntry> NeighborTable::Lookup(NodeId id,
                                                   SimTime now) const {
  const size_t i = Find(id);
  if (i == ids_.size() || !FreshAt(i, now)) return std::nullopt;
  return NeighborEntry{ids_[i], positions_[i], last_heard_[i]};
}

void NeighborTable::SnapshotInto(SimTime now,
                                 std::vector<NeighborEntry>* out) const {
  out->clear();
  if (out->capacity() < ids_.size()) {
    AllocScopePause capacity;  // Scratch high-water growth only.
    out->reserve(ids_.size());
  }
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (FreshAt(i, now)) {
      out->push_back(NeighborEntry{ids_[i], positions_[i], last_heard_[i]});
    }
  }
}

int NeighborTable::CountFresh(SimTime now) const {
  int count = 0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (FreshAt(i, now)) ++count;
  }
  return count;
}

std::optional<NeighborEntry> NeighborTable::ClosestTo(const Point& target,
                                                      SimTime now) const {
  size_t best = ids_.size();
  double best_d2 = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (!FreshAt(i, now)) continue;
    const double d2 = SquaredDistance(positions_[i], target);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  if (best == ids_.size()) return std::nullopt;
  return NeighborEntry{ids_[best], positions_[best], last_heard_[best]};
}

int NeighborTable::CountFartherThan(const Point& from, double radius,
                                    SimTime now) const {
  int count = 0;
  const double r2 = radius * radius;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (FreshAt(i, now) && SquaredDistance(positions_[i], from) > r2) ++count;
  }
  return count;
}

}  // namespace diknn
