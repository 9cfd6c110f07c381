// Deadline-aware admission: predict a query's completion time and shed
// the ones that cannot finish before their deadline, instead of letting
// their itineraries burn shared airtime.
//
// The predictor keeps one EWMA of observed protocol latency per *cell
// ring* — the Chebyshev distance, in cache-grid cells, between the query
// point's cell and the sink's cell — because itinerary length (and hence
// completion time) grows with that distance. Every protocol-launched
// completion (including timeouts, which are exactly the congestion signal
// shedding must react to) feeds the ring it ran in; a ring with no
// history borrows the nearest ring that has some.
//
// Shedding without feedback is a trap: once the estimate exceeds every
// deadline, nothing launches, so nothing is ever observed and the gate
// never reopens. Every kProbeInterval-th would-be-shed query is therefore
// launched anyway as a deterministic probe, keeping fresh samples flowing
// while the network recovers.

#ifndef DIKNN_SERVING_ADMISSION_H_
#define DIKNN_SERVING_ADMISSION_H_

#include <array>
#include <cstdint>

namespace diknn {

class CompletionPredictor {
 public:
  /// Rings at or beyond this index share one bucket.
  static constexpr int kNumRings = 16;
  /// Every Nth would-be-shed query launches as a probe.
  static constexpr int kProbeInterval = 8;

  /// `alpha` is the EWMA gain; `min_samples` the total observation count
  /// required before any shed decision is made.
  explicit CompletionPredictor(double alpha = 0.25, int min_samples = 5)
      : alpha_(alpha), min_samples_(min_samples) {}

  /// Feeds one observed protocol latency (s) for a query in `ring`.
  void Observe(int ring, double latency);

  /// Estimated completion latency for `ring`: its EWMA, or the nearest
  /// ring's when it has no history yet. 0 with no history at all.
  double Estimate(int ring) const;

  /// True once enough history exists to shed at all.
  bool CanPredict() const {
    return total_samples_ >= static_cast<uint64_t>(min_samples_);
  }

  /// Decides whether a query with `budget` seconds left before its
  /// deadline should be shed. Returns true to shed; flips every
  /// kProbeInterval-th shed into a probe (returns false and counts it in
  /// `probes()`).
  bool ShouldShed(int ring, double budget);

  uint64_t probes() const { return probes_; }

 private:
  static int ClampRing(int ring);

  double alpha_;
  int min_samples_;
  std::array<double, kNumRings> ewma_ = {};
  std::array<uint64_t, kNumRings> samples_ = {};
  uint64_t total_samples_ = 0;
  uint64_t shed_streak_ = 0;  ///< Shed decisions since the last probe.
  uint64_t probes_ = 0;
};

}  // namespace diknn

#endif  // DIKNN_SERVING_ADMISSION_H_
