// Streaming latency accounting for the workload engine.
//
// A LatencyHistogram is the log-bucketed obs/log_histogram.h histogram
// over seconds: two merge by adding bucket counts, which is what makes
// multi-run SLO reports bit-identical at any --jobs setting.
//
// An SloReport is the serving-side scorecard of one workload run: the
// outcome partition (completed / deadline-missed / rejected / timed-out
// sums to issued), goodput, and the latency distribution of everything
// that finished.

#ifndef DIKNN_WORKLOAD_LATENCY_HISTOGRAM_H_
#define DIKNN_WORKLOAD_LATENCY_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>

#include "obs/log_histogram.h"
#include "serving/serving_types.h"
#include "workload/workload_spec.h"

namespace diknn {

/// Query latencies in seconds: 8 buckets per octave (~9% relative
/// resolution) over 17 octaves, [1 ms, ~131 s), past any query timeout.
using LatencyHistogram = LogHistogram<1e-3, 8, 136>;

/// How one issued query resolved.
enum class QueryOutcome {
  kCompleted,       ///< Finished within its deadline (or no deadline).
  kDeadlineMissed,  ///< Finished, but after the deadline.
  kRejected,        ///< Turned away by admission control (never ran).
  kTimedOut,        ///< Protocol timeout, or still unresolved at drain end.
};

const char* QueryOutcomeName(QueryOutcome outcome);

/// SLO scorecard of a workload run. Invariant:
/// issued == completed + deadline_missed + rejected + timed_out.
struct SloReport {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t deadline_missed = 0;
  uint64_t rejected = 0;
  uint64_t timed_out = 0;
  /// Issued queries by class (admission-rejected arrivals included).
  std::array<uint64_t, kNumQueryClasses> issued_by_class = {};
  /// Highest simultaneous in-flight count observed.
  uint64_t peak_inflight = 0;
  /// Measured workload seconds (summed across runs when merged).
  double duration = 0.0;
  /// Latencies of everything that finished (completed + missed); rejected
  /// and timed-out queries never enter the distribution.
  LatencyHistogram latency;
  /// Serving front-end counters (cache hits / coalesced followers / shed
  /// queries); all zero when the workload ran without a front end. Shed
  /// queries are counted inside `rejected` (they never launched), so the
  /// outcome partition above still balances.
  ServingCounters serving;

  double p50() const { return latency.Percentile(50.0); }
  double p95() const { return latency.Percentile(95.0); }
  double p99() const { return latency.Percentile(99.0); }
  double p999() const { return latency.Percentile(99.9); }

  /// Queries/s that completed within their deadline.
  double GoodputQps() const {
    return duration > 0.0 ? completed / duration : 0.0;
  }
  /// Fraction of issued queries that finished late.
  double MissRate() const {
    return issued > 0 ? static_cast<double>(deadline_missed) / issued : 0.0;
  }
  /// Fraction of issued queries turned away by admission control.
  double RejectRate() const {
    return issued > 0 ? static_cast<double>(rejected) / issued : 0.0;
  }
  /// Fraction of issued queries that timed out (or never resolved).
  double TimeoutRate() const {
    return issued > 0 ? static_cast<double>(timed_out) / issued : 0.0;
  }

  /// True when the outcome partition sums to `issued`.
  bool Consistent() const {
    return issued == completed + deadline_missed + rejected + timed_out;
  }

  /// Folds another run's report into this one (counts add, histograms
  /// merge, durations sum, peak takes the max).
  void Merge(const SloReport& other);

  /// One-line human-readable summary.
  std::string Format() const;

  /// Compact JSON object (no trailing newline) for bench output.
  std::string ToJson() const;
};

}  // namespace diknn

#endif  // DIKNN_WORKLOAD_LATENCY_HISTOGRAM_H_
