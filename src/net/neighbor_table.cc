#include "net/neighbor_table.h"

#include <limits>

#include "core/alloc_probe.h"

namespace diknn {

void NeighborTable::Reserve(size_t n) {
  ids_.reserve(n);
  positions_.reserve(n);
  last_heard_.reserve(n);
  index_.reserve(n);
}

void NeighborTable::Update(NodeId id, Point position, SimTime now) {
  if (const uint32_t* k = index_.find(id)) {
    positions_[*k] = position;
    last_heard_[*k] = now;
    return;
  }
  // First contact: lane growth is table capacity (lanes and index never
  // shrink), not a per-beacon transient allocation.
  AllocScopePause capacity;
  index_.TryEmplace(id, static_cast<uint32_t>(ids_.size()));
  ids_.push_back(id);
  positions_.push_back(position);
  last_heard_.push_back(now);
}

void NeighborTable::RebuildIndex() {
  index_.clear();
  for (size_t i = 0; i < ids_.size(); ++i) {
    index_.TryEmplace(ids_[i], static_cast<uint32_t>(i));
  }
}

void NeighborTable::Remove(NodeId id) {
  const uint32_t* k = index_.find(id);
  if (k == nullptr) return;
  const size_t i = *k;
  ids_.erase(ids_.begin() + i);
  positions_.erase(positions_.begin() + i);
  last_heard_.erase(last_heard_.begin() + i);
  RebuildIndex();
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
  if (w == ids_.size()) return;
  ids_.resize(w);
  positions_.resize(w);
  last_heard_.resize(w);
  RebuildIndex();
}

std::optional<NeighborEntry> NeighborTable::Lookup(NodeId id,
                                                   SimTime now) const {
  const uint32_t* k = index_.find(id);
  if (k == nullptr || !FreshAt(*k, now)) return std::nullopt;
  const size_t i = *k;
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
