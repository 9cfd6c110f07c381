// Log-bucketed streaming histogram: the one implementation behind the
// workload's LatencyHistogram and the metrics registry's
// MetricsHistogram, which differ only in their three constants.
//
// Buckets are logarithmically spaced (constant relative resolution, like
// HdrHistogram's coarse mode): recording is O(1), memory is constant, and
// two histograms merge by adding bucket counts. Counts are integers, so a
// merge involves no order-dependent floating point, which is what keeps
// multi-run reports bit-identical at any --jobs / --shards setting.

#ifndef DIKNN_OBS_LOG_HISTOGRAM_H_
#define DIKNN_OBS_LOG_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

namespace diknn {

/// Histogram over [0, +inf). Bucket i holds
/// [kMinValue * 2^(i / kBucketsPerOctave), the next bucket's floor); values
/// at or below kMinValue land in bucket 0 and values past the span in the
/// last bucket, but exact min/max are kept, so a percentile never leaves
/// the observed range.
template <double MinValue, int BucketsPerOctave, int NumBuckets>
class LogHistogram {
 public:
  static constexpr double kMinValue = MinValue;
  static constexpr int kBucketsPerOctave = BucketsPerOctave;
  static constexpr int kNumBuckets = NumBuckets;

  /// Records one value (negatives count as 0).
  void Add(double value) {
    value = std::max(value, 0.0);
    if (count_ == 0) {
      min_ = max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    ++buckets_[BucketOf(value)];
  }

  /// Adds another histogram's counts into this one.
  void Merge(const LogHistogram& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

  uint64_t Count() const { return count_; }
  double Sum() const { return sum_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double Min() const { return count_ == 0 ? 0.0 : min_; }
  double Max() const { return count_ == 0 ? 0.0 : max_; }

  /// The p-th percentile (0 <= p <= 100), nearest-rank: the geometric
  /// midpoint of the bucket holding the p-th ranked sample, clamped to
  /// [Min(), Max()]. 0 when empty. Deterministic given equal counts.
  double Percentile(double p) const {
    return NearestRank(p, count_, [this](int i) { return buckets_[i]; });
  }

  /// Percentile of the samples added since `prev` was a copy of this
  /// histogram (bucket-count subtraction; `prev` must be an earlier state
  /// of *this*). 0 when no samples arrived in between. Integer bucket
  /// math, so windowed percentiles stay deterministic: the flight
  /// recorder's per-interval p50/p99 come from here. The window's own
  /// min/max are not retained, so the midpoint clamps to the whole-run
  /// observed range (a superset of the window's).
  double DeltaPercentile(const LogHistogram& prev, double p) const {
    return NearestRank(p, count_ - std::min(count_, prev.count_),
                       [this, &prev](int i) {
                         return buckets_[i] -
                                std::min(buckets_[i], prev.buckets_[i]);
                       });
  }

  bool operator==(const LogHistogram&) const = default;

 private:
  static int BucketOf(double value) {
    if (!(value > kMinValue)) return 0;
    const int bucket =
        static_cast<int>(std::log2(value / kMinValue) * kBucketsPerOctave);
    return std::clamp(bucket, 0, kNumBuckets - 1);
  }

  /// Geometric midpoint of bucket `bucket`.
  static double BucketMidpoint(int bucket) {
    return kMinValue *
           std::exp2((bucket + 0.5) / static_cast<double>(kBucketsPerOctave));
  }

  /// Walks bucket counts `count_at(i)` that total `n` to the bucket
  /// holding the ceil(p% * n)-th sample.
  template <typename CountAt>
  double NearestRank(double p, uint64_t n, CountAt count_at) const {
    if (n == 0) return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(p / 100.0 * n)));
    uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += count_at(i);
      if (seen >= rank) return std::clamp(BucketMidpoint(i), min_, max_);
    }
    return max_;
  }

  std::array<uint64_t, kNumBuckets> buckets_ = {};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace diknn

#endif  // DIKNN_OBS_LOG_HISTOGRAM_H_
