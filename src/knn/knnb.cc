#include "knn/knnb.h"

#include <algorithm>
#include <cmath>

namespace diknn {

double LuneArea(double r, double d) {
  if (d >= 2.0 * r) return kPi * r * r;
  if (d <= 0.0) return 0.0;
  const double lens = 2.0 * r * r * std::acos(d / (2.0 * r)) -
                      (d / 2.0) * std::sqrt(4.0 * r * r - d * d);
  return kPi * r * r - lens;
}

KnnbResult Knnb(const std::vector<RouteHopInfo>& info_list, const Point& q,
                double r, int k, double max_radius,
                KnnbAreaModel area_model) {
  KnnbResult result;
  const double min_radius = r;

  if (info_list.empty() || k <= 0) {
    // No information gathered (sink == home node with no hops). Fall back
    // to a uniform-density guess of one node per radio disk.
    result.radius = std::clamp(r * std::sqrt(static_cast<double>(
                                   std::max(k, 1))),
                               min_radius, max_radius);
    result.extrapolated = true;
    return result;
  }

  // Area sampled by entry j's enc count. Entry 0 (the sink) counted its
  // whole radio disk; entry j >= 1 counted the lune of its disk outside
  // the previous hop's disk. The paper's rectangle model instead charges
  // a semicircle for the tail entry and an r-by-hop rectangle per hop.
  auto entry_area = [&](int j) {
    if (area_model == KnnbAreaModel::kPaperRectangle) {
      if (j == static_cast<int>(info_list.size()) - 1) {
        return kPi * r * r / 2.0;  // A_p, the home-node semicircle.
      }
      return r * Distance(info_list[j + 1].location, info_list[j].location);
    }
    if (j == 0) return kPi * r * r;
    return LuneArea(
        r, Distance(info_list[j].location, info_list[j - 1].location));
  };

  int i = static_cast<int>(info_list.size()) - 1;
  double neighbors = info_list[i].encountered;
  double approx_area = entry_area(i);

  while (i >= 0) {
    ++result.hops_examined;
    const double d = Distance(info_list[i].location, q);
    const double density = neighbors / approx_area;
    const double est_k = kPi * d * d * density;
    if (est_k >= k) {
      result.radius = std::clamp(d, min_radius, max_radius);
      result.density = density;
      return result;
    }
    if (i == 0) break;
    // Extend the estimate one hop toward the sink: add the newly
    // encountered neighbors and the area their hop covered (APPROX).
    neighbors += info_list[i - 1].encountered;
    approx_area += entry_area(i - 1);
    --i;
  }

  // The whole list was consumed without reaching k (the routing path is
  // short relative to k). Extrapolate from the accumulated density:
  // k = pi * R^2 * D  =>  R = sqrt(k / (pi * D)).
  result.extrapolated = true;
  const double density = neighbors / approx_area;
  result.density = density;
  if (density <= 0.0) {
    result.radius = max_radius;
    return result;
  }
  result.radius =
      std::clamp(std::sqrt(k / (kPi * density)), min_radius, max_radius);
  return result;
}

double KnnbMaxRadius(const Rect& field) {
  return 1.5 * (0.5 * std::hypot(field.Width(), field.Height()));
}

double KptConservativeRadius(int k, double mean_hop_distance) {
  return static_cast<double>(k) * mean_hop_distance;
}

}  // namespace diknn
