#include "serving/result_cache.h"

#include <algorithm>
#include <cmath>

namespace diknn {

ResultCache::ResultCache(double ttl_cap, const Rect& field, int cells,
                         double max_speed, double radio_range)
    : ttl_(ttl_cap), field_(field), cells_(std::max(cells, 1)) {
  // Mobility validity time: the answer's nodes stay within one radio
  // range of their reported positions for radio_range / mu_max seconds.
  if (max_speed > 0.0 && radio_range > 0.0) {
    ttl_ = std::min(ttl_, radio_range / max_speed);
  }
  cell_w_ = std::max(field_.Width() / cells_, 1e-9);
  cell_h_ = std::max(field_.Height() / cells_, 1e-9);
}

int32_t ResultCache::CellOf(const Point& p) const {
  int32_t cx = static_cast<int32_t>(std::floor((p.x - field_.min.x) / cell_w_));
  int32_t cy = static_cast<int32_t>(std::floor((p.y - field_.min.y) / cell_h_));
  cx = std::clamp(cx, 0, cells_ - 1);
  cy = std::clamp(cy, 0, cells_ - 1);
  return cy * cells_ + cx;
}

std::optional<std::span<const KnnCandidate>> ResultCache::Lookup(
    int32_t cell, int cls, int k, const Point& q, SimTime now,
    bool* expired_out) {
  if (expired_out != nullptr) *expired_out = false;
  Entry* entry = entries_.find(Key(cell, cls));
  if (entry == nullptr || !entry->live) return std::nullopt;
  // Exact expiry: valid strictly before inserted_at + T, expired at it.
  if (!(now - entry->inserted_at < ttl_)) {
    if (expired_out != nullptr) *expired_out = true;
    entry->live = false;
    return std::nullopt;
  }
  if (entry->k < k) return std::nullopt;  // Not a superset of this ask.
  AssignRetained(&answer_, entry->candidates);
  PruneCandidates(&answer_, q, static_cast<size_t>(k));
  return std::span<const KnnCandidate>(answer_);
}

void ResultCache::Insert(int32_t cell, int cls, int k,
                         const std::vector<KnnCandidate>& candidates,
                         SimTime now) {
  Entry& entry = entries_[Key(cell, cls)];
  if (entry.live && entry.k > k && now - entry.inserted_at < ttl_) {
    return;  // The resident superset serves strictly more lookups.
  }
  entry.k = k;
  entry.live = true;
  entry.inserted_at = now;
  AssignRetained(&entry.candidates, candidates);
}

}  // namespace diknn
