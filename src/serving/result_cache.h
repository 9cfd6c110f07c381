// Sink-side KNN result cache with validity-time-T expiry.
//
// The paper's own mobility analysis (Section 4.3) gives the staleness
// contract: under bounded node speed mu_max, a DIKNN answer stays useful
// while no reported node can have drifted further than the protocol's own
// assurance budget. We budget one radio range of drift, so an entry's
// validity time is
//
//   T = min(ttl_cap, radio_range / mu_max)        (mu_max > 0)
//   T = ttl_cap                                   (static network)
//
// Entries are keyed on (cache-grid cell of the query point, query class)
// and store the k they were seeded with: a lookup for k' <= k is a hit
// and returns the stored superset re-pruned around the querier's own
// point, so two queries in the same cell share one itinerary's answer
// without sharing an exact query point. Expiry is exact: a lookup at
// insertion time + T (or later) misses; any earlier lookup hits.
//
// Everything is plain deterministic data — no clocks, no RNG — so cached
// runs are bit-identical at any harness --jobs count. Entries are
// overwritten in place and hits are re-pruned into one reusable answer
// buffer, so once every key's entry has reached its high-water size the
// cache never allocates (the sharded engine's steady-state gate).

#ifndef DIKNN_SERVING_RESULT_CACHE_H_
#define DIKNN_SERVING_RESULT_CACHE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/flat_map.h"
#include "core/geometry.h"
#include "knn/query.h"

namespace diknn {

class ResultCache {
 public:
  /// `ttl_cap` bounds the validity time from above (the cache@ttl spec
  /// key); `cells` is the grid resolution per field axis; `max_speed` is
  /// the network's mu_max (m/s) and `radio_range` its r (m), from which
  /// the mobility validity time is derived.
  ResultCache(double ttl_cap, const Rect& field, int cells, double max_speed,
              double radio_range);

  /// The effective validity time T (see file comment).
  double effective_ttl() const { return ttl_; }

  /// Cache-grid cell index of `p` (row-major, clamped into the field).
  int32_t CellOf(const Point& p) const;

  /// Returns the cached answer for (`cell`, `cls`) re-pruned to the k
  /// nearest around `q`, when an entry with stored k >= `k` is still
  /// valid at `now`; std::nullopt on a miss. The answer views the cache's
  /// reusable buffer and stays valid until the next Lookup. `expired_out`,
  /// when non-null, is set when the miss was caused by expiry (an entry
  /// existed but aged out).
  std::optional<std::span<const KnnCandidate>> Lookup(
      int32_t cell, int cls, int k, const Point& q, SimTime now,
      bool* expired_out = nullptr);

  /// Seeds (`cell`, `cls`) with a completed answer. A still-valid entry
  /// holding a strictly larger k is kept (it serves a superset of the
  /// lookups this one could); anything else is overwritten.
  void Insert(int32_t cell, int cls, int k,
              const std::vector<KnnCandidate>& candidates, SimTime now);

  /// Cache (and coalesce) key: cell in the high bits, class in the low
  /// byte.
  static uint64_t Key(int32_t cell, int cls) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(cell)) << 8) |
           static_cast<uint64_t>(cls & 0xff);
  }

 private:
  /// An expired entry is marked dead rather than erased, so its
  /// candidate buffer keeps its capacity for the key's next insert.
  struct Entry {
    int k = 0;
    bool live = false;
    SimTime inserted_at = 0.0;
    std::vector<KnnCandidate> candidates;
  };

  double ttl_;
  Rect field_;
  int cells_;
  double cell_w_;
  double cell_h_;
  FlatMap<uint64_t, Entry> entries_;
  std::vector<KnnCandidate> answer_;  ///< Lookup's re-pruned hit.
};

}  // namespace diknn

#endif  // DIKNN_SERVING_RESULT_CACHE_H_
