// Synthetic physical phenomena for sensor readings.
//
// The paper treats node *positions* as the query payload ("find k
// caribous"), but a deployed network senses something — temperature,
// gas concentration, acoustic energy. This module provides a smooth
// space-time scalar field the nodes can sample, so examples and the
// aggregate-query module operate on realistic readings: a sum of moving
// Gaussian sources over an ambient baseline, plus optional per-sample
// sensor noise.

#ifndef DIKNN_NET_SENSOR_FIELD_H_
#define DIKNN_NET_SENSOR_FIELD_H_

#include <vector>

#include "core/geometry.h"
#include "core/rng.h"
#include "sim/event_queue.h"

namespace diknn {

/// One moving Gaussian source (a heat plume, a gas leak, a herd of
/// engines...).
struct FieldSource {
  Point start;          ///< Position at t = 0.
  Point velocity;       ///< Drift (m/s); sources may leave the field.
  double amplitude = 1; ///< Peak contribution at the center.
  double sigma = 20;    ///< Spatial spread (m).
};

/// A scalar field: baseline + sum of sources + optional noise.
class SensorField {
 public:
  /// `noise_stddev`: i.i.d. Gaussian noise added per Sample() call (not
  /// part of the ground-truth Value()).
  SensorField(double baseline, std::vector<FieldSource> sources,
              double noise_stddev = 0.0, uint64_t noise_seed = 1);

  /// Ground-truth field value at position `p`, time `t`.
  double Value(const Point& p, SimTime t) const;

  /// A sensor's reading: ground truth plus noise.
  double Sample(const Point& p, SimTime t);

  /// Position of source `i` at time `t`.
  Point SourcePosition(size_t i, SimTime t) const;

  size_t num_sources() const { return sources_.size(); }

  /// Convenience: a field with `count` random sources inside `bounds`,
  /// drifting at up to `max_drift` m/s.
  static SensorField Random(const Rect& bounds, int count,
                            double amplitude, double sigma,
                            double max_drift, uint64_t seed);

 private:
  double baseline_;
  std::vector<FieldSource> sources_;
  double noise_stddev_;
  Rng noise_rng_;
};

}  // namespace diknn

#endif  // DIKNN_NET_SENSOR_FIELD_H_
