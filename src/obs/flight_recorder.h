// The flight recorder: periodic sampling of live run state into a
// bounded TimeSeriesSet.
//
// A FlightRecorder owns one TimeSeriesSet and a list of probes. A probe
// is a callback that reads live counters (channel stats, the SloReport,
// serving counters), computes this interval's deltas, and appends one
// sample per series. Probes only ever *read* simulation state — the
// observation-never-perturbs contract of docs/OBSERVABILITY.md extends
// to the recorder: a run with the recorder enabled carries the exact
// same traffic as one without (asserted by bench_obs and
// timeseries_test), and the disabled path is a null-pointer check.
//
// Two driving modes:
//  * Serial engine: ScheduleTicks() plants a self-rescheduling simulator
//    event every `interval` sim-seconds. The event reads state and never
//    writes any, so event-queue cohabitation cannot change traffic.
//  * Parallel engine (psim): the engine calls Tick() from its barrier
//    completion step — a natural global sync point where every shard is
//    quiescent, so cross-shard sums are race-free and, for sim-time
//    derived counters, partition-invariant. Ticks land on window
//    boundaries, so the span a sample covers is passed in by the engine.
//
// Delta helpers (CounterDelta / RatioDelta) keep the per-interval math in
// integers until the final division, preserving bit-identity across
// --jobs and --shards for the deterministic series.

#ifndef DIKNN_OBS_FLIGHT_RECORDER_H_
#define DIKNN_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/timeseries.h"

namespace diknn {

class Simulator;

/// Tracks a monotonically increasing counter and yields per-tick deltas.
struct CounterDelta {
  uint64_t prev = 0;

  /// Delta since the last call (first call measures from `prev`'s
  /// initial value, so construct after warmup to skip warmup traffic).
  uint64_t Take(uint64_t now) {
    const uint64_t d = now >= prev ? now - prev : 0;
    prev = now;
    return d;
  }
};

/// num/den as a double; 0 when the denominator is 0 (an interval with no
/// events reads as a zero rate, not a NaN).
inline double SafeRate(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                 : 0.0;
}

class FlightRecorder {
 public:
  explicit FlightRecorder(TimeSeriesOptions options) : set_(options) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  const TimeSeriesOptions& options() const { return set_.options(); }

  /// Creates (or fetches) a series. Diagnostic series are excluded from
  /// the deterministic export section (wall-clock / partition-dependent
  /// values, the busy_s precedent).
  TimeSeries* AddSeries(const std::string& name, bool diagnostic = false) {
    return set_.Add(name, diagnostic);
  }

  /// A sampling probe, called once per tick with the sample's sim time
  /// `t` and the `span` of sim time the sample covers (t minus the
  /// previous tick, or minus the recording's start). Per-second rates
  /// divide by `span`.
  using Probe = std::function<void(double t, double span)>;

  /// Registers a probe. Probes run in registration order.
  void AddProbe(Probe probe) { probes_.push_back(std::move(probe)); }

  /// Records a point event on the timeline (fault kill/revive edges).
  void Annotate(double t, std::string label, double value = 0.0) {
    set_.Annotate(t, std::move(label), value);
  }

  /// Runs every probe at sample time `t` for a sample covering `span`.
  /// Idempotence is the probes' concern (each tick appends exactly one
  /// sample per series).
  void Tick(double t, double span) {
    for (Probe& probe : probes_) probe(t, span);
  }

  /// Serial-engine driver: schedules ticks at start+i*interval for
  /// i = 1.. while the tick time stays <= end, each covering exactly
  /// `interval`. The events only read simulation state, so traffic is
  /// bit-identical to an untracked run.
  void ScheduleTicks(Simulator* sim, double start, double end);

  const TimeSeriesSet& series() const { return set_; }
  TimeSeriesSet& series() { return set_; }

 private:
  TimeSeriesSet set_;
  std::vector<Probe> probes_;
};

}  // namespace diknn

#endif  // DIKNN_OBS_FLIGHT_RECORDER_H_
