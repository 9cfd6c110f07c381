// Discrete-event simulator: the clock and scheduling facade used by every
// network and protocol component.

#ifndef DIKNN_SIM_SIMULATOR_H_
#define DIKNN_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "sim/event_queue.h"

namespace diknn {

/// Drives simulated time forward by executing events in timestamp order.
///
/// The simulator is single-threaded: an event callback may schedule or
/// cancel further events but must not block. All substrate components
/// (channel, MAC, mobility, protocols) share one Simulator instance.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in seconds.
  SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute time `t`; `t` must be >= Now(). Accepts
  /// any `void()` callable; small captures are stored without heap
  /// allocation (SmallFn inline storage).
  template <typename F>
  EventId ScheduleAt(SimTime t, F&& fn) {
    assert(t >= now_ && "cannot schedule events in the past");
    if (t < now_) t = now_;
    return queue_.Push(t, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` seconds (>= 0).
  template <typename F>
  EventId ScheduleAfter(SimTime delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` to fire every `period` seconds starting `phase` seconds
  /// from now. Returns the id of the *first* firing; use the returned
  /// PeriodicHandle-style id with CancelPeriodic via the closure instead.
  /// The repetition stops when `fn` returns false.
  EventId SchedulePeriodic(SimTime phase, SimTime period,
                           std::function<bool()> fn);

  /// Cancels a pending event in O(1) (no-op if already fired or
  /// cancelled).
  void Cancel(EventId id) { queue_.Cancel(id); }

  /// True while `id` has neither fired nor been cancelled.
  bool IsPending(EventId id) const { return queue_.IsPending(id); }

  /// Runs events until the queue is empty or `max_events` have fired.
  /// Returns the number of events executed.
  uint64_t Run(uint64_t max_events = std::numeric_limits<uint64_t>::max());

  /// Runs events with timestamps <= `t`, then advances the clock to exactly
  /// `t` (even if no event fired at `t`). Returns events executed.
  uint64_t RunUntil(SimTime t);

  /// Runs events with timestamps strictly < `t`, then advances the clock
  /// to exactly `t`. The half-open variant of RunUntil: the parallel
  /// engine (src/psim) drains each shard's window [kL, (k+1)L) with
  /// RunBefore((k+1)L), so an event at exactly the window boundary fires
  /// in the *next* window — after the cross-shard barrier exchange — and
  /// never races a neighbor shard's frames for the same instant.
  uint64_t RunBefore(SimTime t);

  /// Total events executed since construction.
  uint64_t events_executed() const { return events_executed_; }

  /// Number of pending (live) events.
  size_t pending_events() const { return queue_.Size(); }

  /// Scheduler counters (events pushed/fired/cancelled, wheel vs
  /// overflow split, callback storage split, peak sizes).
  const EngineStats& engine_stats() const { return queue_.stats(); }

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
  uint64_t events_executed_ = 0;
};

}  // namespace diknn

#endif  // DIKNN_SIM_SIMULATOR_H_
