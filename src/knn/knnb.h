// KNNB — the linear-time KNN boundary estimation algorithm (Section 4.2,
// Algorithm 1 of the paper).
//
// Input: the information list L gathered along the routing path from the
// sink to the home node, the query point q, the radio range r, and k.
// Output: radius R of the KNN boundary — the circle around q expected to
// contain the k nearest neighbors, assuming nodes are locally uniform.
//
// The algorithm walks L from the tail (the hops nearest q), maintaining a
// running neighbor count and an approximation of the area those hops
// covered: a semicircle of radius r at the home node plus one r-by-d
// rectangle per hop (Fig. 5). It returns the distance of the first hop
// whose implied density extrapolates to at least k nodes around q.

#ifndef DIKNN_KNN_KNNB_H_
#define DIKNN_KNN_KNNB_H_

#include <vector>

#include "core/geometry.h"
#include "routing/gpsr.h"

namespace diknn {

/// How KNNB approximates the area covered by each routing hop.
enum class KnnbAreaModel {
  /// Algorithm 1 verbatim: one r-by-hop-length rectangle per hop and a
  /// semicircle at the home node. Underestimates the covered area by
  /// roughly 2x (the radio disk is 2r wide, not r), which overestimates
  /// density and shrinks R — measurably hurting accuracy. Kept for the
  /// fidelity ablation (bench_ablations).
  kPaperRectangle,
  /// Geometrically exact: each hop covers the lune of the current node's
  /// radio disk outside the previous node's disk — which is precisely the
  /// region the enc_i "newly encountered neighbors" count samples — and
  /// the home node contributes its full disk. Closed form, still O(1)
  /// per hop. Reproduces the radii the paper reports (its example gives
  /// R ~= 53 m at k = 40; the rectangle model yields ~37 m).
  kLune,
};

/// Result of a KNNB estimation, with diagnostics for tests and benches.
struct KnnbResult {
  double radius = 0.0;        ///< Estimated KNN boundary radius R.
  double density = 0.0;       ///< Node density used (nodes / m^2).
  int hops_examined = 0;      ///< List entries consumed before returning.
  bool extrapolated = false;  ///< True if the whole list was consumed and
                              ///  R was extrapolated from the density.
};

/// Runs Algorithm 1. `info_list` is the list L (index 0 = first hop at the
/// sink, back = the home node's own entry). Returns a radius clamped to
/// [r, max_radius].
///
/// When even the full list's density fails to reach k (est_k < k for every
/// prefix — the paper leaves this case implicit), the radius is
/// extrapolated from the accumulated density: R = sqrt(k / (pi * D)).
KnnbResult Knnb(const std::vector<RouteHopInfo>& info_list, const Point& q,
                double r, int k, double max_radius,
                KnnbAreaModel area_model = KnnbAreaModel::kLune);

/// Cap on the KNNB radius for a field: 1.5 x half its diagonal. A sparse
/// list can extrapolate an R far past the field; the cap keeps the
/// boundary (and the traversal sized by it) on the field's scale.
double KnnbMaxRadius(const Rect& field);

/// Area of the region inside a disk of radius `r` centered at distance
/// `d` from another equal disk, but outside that other disk (the "lune").
/// Equals pi*r^2 when the disks do not overlap (d >= 2r).
double LuneArea(double r, double d);

/// The conservative boundary used by the original KPT (Winter & Lee): the
/// maximum-hop-distance heuristic R = k * MHD, where MHD is the expected
/// advance of one hop. Grows linearly in k (quadratically in area), which
/// is the behaviour Section 5 criticizes; implemented for the
/// bench_knnb_radius comparison.
double KptConservativeRadius(int k, double mean_hop_distance);

}  // namespace diknn

#endif  // DIKNN_KNN_KNNB_H_
