// Metric definitions and aggregation for the experiment harness.
//
// The paper's three metrics (Section 5.1):
//   Query latency  — seconds from issue to result receipt at the sink,
//                    averaged over the queries that resolved (completed
//                    or deadline-missed; the run's SloReport). A
//                    timed-out query counts in the timeout rate instead,
//                    and a run with no resolved query has no mean latency
//                    (printed n/a, left out of ExperimentMetrics::latency).
//   Energy         — Joules consumed in a simulation run (we report the
//                    query + index-maintenance categories; the periodic
//                    beacon cost is identical across schemes and reported
//                    separately).
//   Query accuracy — fraction of the true KNN returned; "pre-accuracy"
//                    scores against the true KNN at issue time,
//                    "post-accuracy" against the true KNN at receipt time
//                    (Accuracy() in knn/query.h).

#ifndef DIKNN_HARNESS_METRICS_H_
#define DIKNN_HARNESS_METRICS_H_

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "sim/event_queue.h"
#include "workload/latency_histogram.h"

namespace diknn {

/// Aggregated outcome of one simulation run.
struct RunMetrics {
  /// Mean accuracies over the run's scored KNN answers (0 when none).
  double avg_pre_accuracy = 0.0;
  double avg_post_accuracy = 0.0;
  double energy_joules = 0.0;        ///< Query + maintenance energy.
  double beacon_energy_joules = 0.0; ///< Common beaconing cost.
  double average_degree = 0.0;       ///< Measured mean neighbor count.
  // Fault-injection / lifecycle-audit counters (zero on clean runs).
  uint64_t faults_injected = 0;      ///< Faults applied by the FaultPlan.
  uint64_t lifecycle_checks = 0;     ///< Query completions audited.
  uint64_t lifecycle_violations = 0; ///< Completions that left residue.
  uint64_t leaked_entries = 0;       ///< Per-query entries alive post-drain.
  /// Intra-run sharding of this run: what the config asked for and what
  /// the partition geometry granted (the field may be too small for the
  /// requested tile count). Both 1 on serial runs.
  int shards_requested = 1;
  int shards_effective = 1;
  /// SLO scorecard of the run's workload (ExperimentConfig::workload):
  /// query counts by outcome, and the latency distribution and mean of
  /// the queries that resolved.
  SloReport slo;
  /// Scheduler counters for the run (Simulator::engine_stats(); psim
  /// runs merge their shards' with MergeEngineStats).
  EngineStats engine;
  /// Named observability metrics published at the end of the run
  /// (channel / MAC / GPSR / protocol / engine / tracer counters plus the
  /// query-latency histogram). Merged across runs in seed order, so the
  /// aggregate is bit-identical at any jobs count.
  MetricsSnapshot obs;
  /// Flight recording of the run (empty unless a timeseries cadence was
  /// configured). Deterministic series are bit-identical across --jobs
  /// and --shards; diagnostic series follow the busy_s precedent.
  TimeSeriesSet ts;
};

/// Mean/stddev summary of a sample.
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  int count = 0;
};

/// Computes a Summary over `values` (all zeros when empty).
Summary Summarize(const std::vector<double>& values);

/// The p-th percentiles (0 <= p <= 100, clamped) of one sample by linear
/// interpolation between order statistics, sorting it once. Returns one
/// value per entry of `ps`, in order; all zeros when `values` is empty.
std::vector<double> Percentiles(std::vector<double> values,
                                const std::vector<double>& ps);

/// RunMetrics averaged across repeated runs, with per-metric summaries.
struct ExperimentMetrics {
  /// Per-run mean latency, over the runs that resolved a query (count 0
  /// when none did).
  Summary latency;
  Summary pre_accuracy;
  Summary post_accuracy;
  Summary energy;
  Summary timeout_rate;
  /// Per-run goodput (queries per second completed within their
  /// deadline).
  Summary goodput;
  /// Merged SLO scorecard across runs (integer bucket counts, so the
  /// merge is bit-identical at any jobs setting).
  SloReport slo;
  /// Merged observability metrics across runs (seed order).
  MetricsSnapshot obs;
  /// The base seed's (runs[0]'s) flight recording. Time series are not
  /// merged across seeds — each run has its own timeline — so the
  /// aggregate carries the first run's recording verbatim, which keeps
  /// the exported artifact independent of --jobs.
  TimeSeriesSet ts;
  int runs = 0;
};

/// Aggregates per-run metrics into experiment-level summaries.
ExperimentMetrics AggregateRuns(const std::vector<RunMetrics>& runs);

}  // namespace diknn

#endif  // DIKNN_HARNESS_METRICS_H_
