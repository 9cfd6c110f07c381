#include "workload/query_sampler.h"

#include <algorithm>
#include <cmath>

namespace diknn {

QuerySampler::QuerySampler(const WorkloadSpec& spec, const Rect& field,
                           int node_count, uint64_t seed, NodeId sink)
    : spec_(spec),
      field_(field),
      node_count_(node_count),
      sink_(sink),
      rng_(seed) {
  if (spec_.spatial == SpatialKind::kHotspot) {
    double cum = 0.0;
    for (int i = 0; i < spec_.hotspots; ++i) {
      hotspot_centers_.push_back(rng_.PointInRect(field_));
      cum += std::pow(i + 1.0, -spec_.hotspot_skew);
      hotspot_cumweight_.push_back(cum);
    }
  }
}

double QuerySampler::NextInterval() {
  return spec_.arrival == ArrivalKind::kPoisson
             ? rng_.Exponential(1.0 / spec_.rate)
             : 1.0 / spec_.rate;
}

Point QuerySampler::NextPoint() {
  if (spec_.spatial == SpatialKind::kUniform || hotspot_centers_.empty()) {
    return rng_.PointInRect(field_);
  }
  const double u = rng_.NextDouble() * hotspot_cumweight_.back();
  size_t idx = 0;
  while (idx + 1 < hotspot_cumweight_.size() && hotspot_cumweight_[idx] < u) {
    ++idx;
  }
  const Point center = hotspot_centers_[idx];
  const Point p{center.x + rng_.Normal(0.0, spec_.hotspot_sigma),
                center.y + rng_.Normal(0.0, spec_.hotspot_sigma)};
  return field_.Clamp(p);
}

SampledQuery QuerySampler::Next() {
  SampledQuery s;
  // A spec with one weighted class spends no draw on it, so the §5.1
  // spec draws gap, sink and point only: the order the paper-run golden
  // anchors (engine_determinism_test) were recorded in.
  const auto weighted = std::count_if(spec_.mix.begin(), spec_.mix.end(),
                                      [](double w) { return w > 0.0; });
  int cls = 0;
  if (weighted == 1) {
    while (spec_.mix[cls] <= 0.0) ++cls;
  } else {
    const double u = rng_.NextDouble() * spec_.TotalWeight();
    double cum = 0.0;
    for (; cls < kNumQueryClasses; ++cls) {
      cum += spec_.mix[cls];
      if (u < cum && spec_.mix[cls] > 0.0) break;
    }
  }
  s.cls = static_cast<QueryClass>(std::min(cls, kNumQueryClasses - 1));
  s.sink = sink_ != kInvalidNodeId
               ? sink_
               : static_cast<NodeId>(rng_.UniformInt(0, node_count_ - 1));
  s.q = NextPoint();
  s.k = spec_.k_lo == spec_.k_hi ? spec_.k_lo
                                 : rng_.UniformInt(spec_.k_lo, spec_.k_hi);
  return s;
}

}  // namespace diknn
