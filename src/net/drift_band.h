// Receiver selection from bucketed positions, shared by both engines.
//
// The serial Channel and psim's shards bucket every node into a grid at
// periodic refreshes, and each remembers the position it bucketed a node
// at. Until the next refresh a node is never farther than
// D = speed bound x (now - last refresh) from that position, so for a
// frame sent from `origin` with radio range r:
//
//   |at - origin| > r + D   the node is out of range now;
//   |at - origin| < r - D   the node is in range now;
//   otherwise               only its exact position can tell.
//
// At the paper's Section 5.1 settings (r = 20 m, mu_max = 10 m/s, a
// 0.25 s refresh) D is at most 2.5 m, so most grid candidates are judged
// without a (virtual) PositionAt call. Both bounds are widened by a
// fixed slack far above the rounding error of squared distances, so a
// verdict never contradicts the exact test
// SquaredDistance(position, origin) > r * r.

#ifndef DIKNN_NET_DRIFT_BAND_H_
#define DIKNN_NET_DRIFT_BAND_H_

#include <cassert>
#include <cstdint>

#include "core/geometry.h"

namespace diknn {

/// Verdict on one receiver candidate, from its bucketed position.
enum class Reach : uint8_t {
  kOut,    ///< Out of radio range wherever the node has drifted.
  kIn,     ///< In radio range wherever the node has drifted.
  kCheck,  ///< In the drift band: needs the exact position.
};

class DriftBand {
 public:
  /// Slack (m) added to the drift on both sides of the band.
  static constexpr double kSlack = 1e-6;

  /// `range`: radio range r (m). `drift`: the farthest any node can have
  /// moved since it was bucketed, D (m).
  DriftBand(double range, double drift) {
    assert(drift >= 0.0);
    const double outer = range + drift + kSlack;
    const double inner = range - drift - kSlack;
    outer2_ = outer * outer;
    inner2_ = inner > 0.0 ? inner * inner : -1.0;  // -1: nothing is in.
  }

  /// Judges a node bucketed at `at` against a frame sent from `origin`.
  Reach Classify(const Point& at, const Point& origin) const {
    const double d2 = SquaredDistance(at, origin);
    if (d2 > outer2_) return Reach::kOut;
    if (d2 < inner2_) return Reach::kIn;
    return Reach::kCheck;
  }

 private:
  double outer2_;  // (r + D + slack)^2
  double inner2_;  // (r - D - slack)^2, or -1 when r <= D + slack.
};

}  // namespace diknn

#endif  // DIKNN_NET_DRIFT_BAND_H_
