// Declarative query-workload specifications.
//
// The paper evaluates one query at a time (exponential inter-arrival with
// a 4 s mean), so queries almost never overlap. A WorkloadSpec describes
// the serving regime instead: a sustained stream of concurrent queries
// with an arrival process (open-loop Poisson / fixed-rate, or closed-loop
// with a concurrency cap), a mix of query classes, a k distribution, a
// spatial distribution for query points, per-query deadlines and an
// admission-control bound. The QueryDriver replays a spec against a
// protocol stack; the same spec + the same seed is bit-reproducible.
//
// Spec grammar (one string, e.g. for diknn_sim --workload), modeled on
// the fault-plan grammar in src/faults/fault_plan.h:
//
//   spec    := clause (';' clause)*
//   clause  := section '@' key '=' value (',' key '=' value)*
//
// with sections and their keys (every clause is optional; defaults below):
//
//   arrival  kind=poisson|fixed|closed   open-loop Poisson (default),
//                                        open-loop fixed spacing, or
//                                        closed-loop sessions
//            rate=R                      offered load, queries/s (open loop)
//            sessions=N                  concurrent sessions (closed loop)
//            think=S                     per-session think time (closed loop)
//   mix      knn=W,knnb=W,window=W,continuous=W,aggregate=W
//                                        per-class weights (>= 0, sum > 0;
//                                        default knn=1, rest 0)
//   k        lo=A,hi=B                   k ~ UniformInt[A, B]; lo alone
//                                        (or lo == hi) pins k
//   space    kind=uniform|hotspot        query-point distribution
//            n=N                         hotspot count (default 4)
//            sigma=S                     Gaussian spread per hotspot (m)
//            skew=Z                      Zipf exponent over hotspots
//   deadline s=S                         per-query latency SLO (s); 0 = none
//   admit    inflight=N                  max in-flight queries; 0 = unbounded
//            queue=Q                     waiting-room capacity once at the
//                                        bound (0 = reject immediately)
//            shed=0|1                    deadline-aware admission: shed
//                                        queries whose predicted completion
//                                        misses their deadline (needs
//                                        deadline@s > 0 to bite)
//                                        Open loop only: a closed-loop
//                                        spec with an admit@ clause does
//                                        not parse (sessions=N is its
//                                        concurrency bound)
//   cache    ttl=S                       sink-side result cache: TTL cap in
//                                        seconds (> 0 enables; the
//                                        effective validity time is
//                                        min(ttl, radio_range / mu_max))
//            cells=N                     cache-grid cells per field axis
//   coalesce window=S                    attach co-located queries to an
//                                        in-flight leader up to this age
//                                        (> 0 enables coalescing)
//            kslack=K                    a follower may ask for up to K
//                                        more neighbors than its leader
//   window   side=S                      extent (m) of window/aggregate
//                                        query rectangles
//   continuous period=S,rounds=N        refresh period and round count per
//                                        continuous subscription
//   trace    rate=R                     fraction of queries traced by the
//                                        harness Tracer, in [0,1]; 0 (the
//                                        default) records nothing
//   timeseries interval=S               flight-recorder sampling cadence in
//                                        sim-seconds (> 0 enables the
//                                        windowed time-series rollups; see
//                                        docs/OBSERVABILITY.md)
//            capacity=N                  ring depth per series (0 = default,
//                                        currently 512; oldest samples fall
//                                        off first)
//
// Example — 8 q/s Poisson, 80/20 point-KNN/window, k in [20,60], hotspot
// arrivals, a 2 s deadline and at most 64 in flight:
//   "arrival@kind=poisson,rate=8;mix@knn=0.8,window=0.2;k@lo=20,hi=60;"
//   "space@kind=hotspot,n=4,sigma=12;deadline@s=2;admit@inflight=64"

#ifndef DIKNN_WORKLOAD_WORKLOAD_SPEC_H_
#define DIKNN_WORKLOAD_WORKLOAD_SPEC_H_

#include <array>
#include <optional>
#include <string>

#include "serving/serving_types.h"

namespace diknn {

/// Arrival process for the query stream.
enum class ArrivalKind {
  kPoisson,     ///< Open loop, exponential inter-arrival at `rate` q/s.
  kFixedRate,   ///< Open loop, constant 1/rate spacing.
  kClosedLoop,  ///< `sessions` sessions, each re-issuing after think time.
};

/// The query classes a workload can mix. kKnn is the point-KNN query of
/// the installed protocol (DIKNN or a baseline); kKnnBoundary is a range
/// query over the estimated KNN boundary of a random point; the rest map
/// to the window / continuous / aggregate engines.
enum class QueryClass {
  kKnn = 0,
  kKnnBoundary,
  kWindow,
  kContinuous,
  kAggregate,
};

inline constexpr int kNumQueryClasses = 5;

/// Short lower-case tag for a class ("knn", "knnb", "window", ...).
const char* QueryClassName(QueryClass cls);

/// Spatial distribution of query points.
enum class SpatialKind {
  kUniform,  ///< Uniform over the deployment field.
  kHotspot,  ///< Zipf-weighted Gaussian clusters (skewed demand).
};

/// A parsed, immutable description of a query-serving workload.
struct WorkloadSpec {
  ArrivalKind arrival = ArrivalKind::kPoisson;
  double rate = 1.0;        ///< Offered load, queries/s (open loop).
  int sessions = 8;         ///< Concurrency bound (closed loop).
  double think_time = 0.0;  ///< Post-completion pause (closed loop, s).

  /// Per-class weights, indexed by QueryClass. Normalized at draw time.
  std::array<double, kNumQueryClasses> mix = {1.0, 0.0, 0.0, 0.0, 0.0};

  int k_lo = 40;  ///< k ~ UniformInt[k_lo, k_hi].
  int k_hi = 40;

  SpatialKind spatial = SpatialKind::kUniform;
  int hotspots = 4;            ///< Cluster count (kHotspot).
  double hotspot_sigma = 12.0; ///< Gaussian spread per cluster (m).
  double hotspot_skew = 1.0;   ///< Zipf exponent over clusters.

  double deadline = 0.0;  ///< Per-query latency SLO (s); 0 = none.

  // Admission (open loop only: sessions bound a closed loop).
  int max_inflight = 0;    ///< Admission bound; 0 = unbounded.
  int queue_capacity = 0;  ///< Waiting room at the bound; 0 = reject.
  bool admit_shed = false; ///< Deadline-aware shedding (admit@shed=1).

  double cache_ttl = 0.0;  ///< Result-cache TTL cap (s); 0 = no cache.
  int cache_cells = 16;    ///< Cache-grid cells per field axis.

  double coalesce_window = 0.0;  ///< Max leader age (s); 0 = no coalescing.
  int coalesce_kslack = 0;       ///< Follower k overshoot tolerance.

  double window_side = 30.0;       ///< Window/aggregate rect side (m).
  double continuous_period = 1.0;  ///< Continuous refresh period (s).
  int continuous_rounds = 3;       ///< Rounds per subscription.

  /// Fraction of queries traced (when the harness attaches a Tracer);
  /// 0 disables tracing for this workload.
  double trace_sample = 0.0;

  /// Flight-recorder cadence (sim-seconds between samples); 0 disables
  /// the time-series rollups. CLI --ts-interval overrides.
  double ts_interval = 0.0;
  /// Ring depth per series; 0 = TimeSeriesOptions::kDefaultCapacity.
  int ts_capacity = 0;

  /// Sum of the class weights (> 0 for a valid spec).
  double TotalWeight() const;

  /// The serving front-end tunables of this spec (Enabled() is false
  /// when no cache/coalesce/shed clause was given).
  ServingParams Serving() const {
    ServingParams p;
    p.cache_ttl = cache_ttl;
    p.cache_cells = cache_cells;
    p.coalesce_window = coalesce_window;
    p.coalesce_kslack = coalesce_kslack;
    p.shed = admit_shed;
    return p;
  }

  /// Parses the grammar above. Returns std::nullopt on malformed input
  /// and, when `error` is non-null, stores a human-readable reason.
  static std::optional<WorkloadSpec> Parse(const std::string& spec,
                                           std::string* error = nullptr);

  /// Serializes back to the grammar (canonical form; parseable).
  std::string ToSpec() const;
};

}  // namespace diknn

#endif  // DIKNN_WORKLOAD_WORKLOAD_SPEC_H_
