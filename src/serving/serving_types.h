// Shared types of the query-admission front end (src/serving): the
// tunables parsed from a WorkloadSpec's cache@ / coalesce@ / admit@shed
// clauses, the per-run serving counters carried in every SloReport, and
// the per-query serving path recorded for analysis.
//
// This header is dependency-free so the workload layer can embed the
// counters in its reports without linking the serving library.

#ifndef DIKNN_SERVING_SERVING_TYPES_H_
#define DIKNN_SERVING_SERVING_TYPES_H_

#include <cstdint>

namespace diknn {

/// Front-end tunables, normally filled from a WorkloadSpec.
struct ServingParams {
  /// Result-cache time-to-live cap (s); 0 disables the cache. The
  /// effective TTL is further capped by the mobility-derived validity
  /// time T = radio_range / max_speed (see ResultCache).
  double cache_ttl = 0.0;
  /// Cache-grid resolution: cells per field axis.
  int cache_cells = 16;
  /// Maximum age (s) of an in-flight leader a new co-located query may
  /// attach to; 0 disables coalescing.
  double coalesce_window = 0.0;
  /// A follower may request up to `kslack` more neighbors than its
  /// leader; the excess goes unfilled (partial answer).
  int coalesce_kslack = 0;
  /// Deadline-aware admission: shed queries whose predicted completion
  /// time already exceeds their deadline.
  bool shed = false;

  /// True when any stage is active (the driver builds a front end).
  bool Enabled() const {
    return cache_ttl > 0.0 || coalesce_window > 0.0 || shed;
  }
};

/// How one query was served by the front end.
enum class ServingPath : uint8_t {
  kDirect = 0,  ///< Launched on the protocol (leader or no front end).
  kCacheHit,    ///< Answered from the result cache; no channel traffic.
  kFollower,    ///< Attached to an in-flight leader; answer fanned out.
  kShed,        ///< Dropped by deadline-aware admission; never launched.
};

/// Per-run serving counters. Merged across runs by addition (integers),
/// so aggregates are bit-identical at any harness --jobs count.
struct ServingCounters {
  uint64_t cache_hits = 0;        ///< Queries answered from the cache.
  uint64_t cache_misses = 0;      ///< Lookups that found nothing usable.
  uint64_t cache_expired = 0;     ///< Misses caused by validity-T expiry.
  uint64_t cache_insertions = 0;  ///< Completions that seeded the cache.
  uint64_t coalesced = 0;         ///< Followers attached to a leader.
  uint64_t fanned_out = 0;        ///< Follower answers delivered.
  uint64_t shed = 0;              ///< Queries dropped by admission.
  uint64_t shed_probes = 0;       ///< Would-be sheds launched as probes.

  void Merge(const ServingCounters& other) {
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_expired += other.cache_expired;
    cache_insertions += other.cache_insertions;
    coalesced += other.coalesced;
    fanned_out += other.fanned_out;
    shed += other.shed;
    shed_probes += other.shed_probes;
  }

  /// True when the front end did anything at all this run.
  bool Any() const {
    return cache_hits + cache_misses + coalesced + shed + shed_probes > 0;
  }

  bool operator==(const ServingCounters&) const = default;
};

}  // namespace diknn

#endif  // DIKNN_SERVING_SERVING_TYPES_H_
