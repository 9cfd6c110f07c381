// The per-arrival random draws of a WorkloadSpec, shared by both engines.
//
// The serial QueryDriver and the sharded engine's arrival schedule
// (psim/query_plane.h) draw their queries through one QuerySampler, so
// for one spec and seed they issue the same sequence: inter-arrival gap,
// then class, sink, query point and k, in exactly that RNG order. The
// class takes a draw only when the spec weights more than one class, so
// a one-class spec draws gap, sink (when drawn per query), point and k.
// Hotspot centers are drawn once, at construction.

#ifndef DIKNN_WORKLOAD_QUERY_SAMPLER_H_
#define DIKNN_WORKLOAD_QUERY_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "core/geometry.h"
#include "core/rng.h"
#include "net/packet.h"
#include "workload/workload_spec.h"

namespace diknn {

/// The workload stream's seed for run seed `seed` (the harness fold both
/// engines share).
inline uint64_t WorkloadSeed(uint64_t seed) {
  return seed * 0x9e3779b97f4a7c15ULL + 17;
}

/// One arrival's drawn parameters.
struct SampledQuery {
  QueryClass cls = QueryClass::kKnn;
  NodeId sink = kInvalidNodeId;
  Point q;
  int k = 1;
};

class QuerySampler {
 public:
  /// `sink` issues every query; kInvalidNodeId draws one per query,
  /// uniformly from [0, node_count).
  QuerySampler(const WorkloadSpec& spec, const Rect& field, int node_count,
               uint64_t seed, NodeId sink);

  /// Open-loop gap to the next arrival: exponential for kPoisson, else
  /// the fixed 1/rate spacing.
  double NextInterval();

  /// Draws the next arrival's class (only when several classes have
  /// weight), sink, point and k, in that order.
  SampledQuery Next();

 private:
  Point NextPoint();

  WorkloadSpec spec_;
  Rect field_;
  int node_count_;
  NodeId sink_;
  Rng rng_;
  std::vector<Point> hotspot_centers_;
  std::vector<double> hotspot_cumweight_;
};

}  // namespace diknn

#endif  // DIKNN_WORKLOAD_QUERY_SAMPLER_H_
