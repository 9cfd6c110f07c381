// The discrete-event simulator's scheduler: a hierarchical timer wheel
// for near-future events plus a min-heap overflow tier for far-future
// ones, over a slab pool of generation-tagged slots.
//
// Why not a single binary heap: the simulator's load is dominated by
// short-lived timers on the beacon/MAC timescale (CSMA backoffs, ACK
// timeouts, frame completions, beacon rounds) that are pushed, fired or
// cancelled within milliseconds. A priority queue pays O(log n) per
// operation on the whole pending set and, with tombstone cancellation,
// keeps dead entries (and their captured state) resident until they
// surface. Here:
//
//   * Push lands in a calendar bucket (O(1)) when the event fires within
//     the wheel horizon — the common case — and in the overflow heap
//     otherwise (deadlines, query timeouts, fault plans).
//   * Cancel is O(1): the event's pool slot is invalidated (generation
//     bump) and its callback destroyed immediately; only a 24-byte POD
//     reference stays behind in a bucket until the cursor passes it.
//   * Pop drains one bucket at a time, sorting each bucket's handful of
//     entries by (time, sequence). Buckets partition the time axis
//     monotonically, so this is the global order: events fire by time,
//     FIFO by push sequence within a timestamp. engine_determinism_test
//     checks that contract against a direct (time, sequence) oracle and
//     pins golden-seed run outputs.
//   * Callbacks live in SmallFn inline storage inside the pool slot; no
//     per-event allocation for anything that fits 64 bytes of captures.

#ifndef DIKNN_SIM_EVENT_QUEUE_H_
#define DIKNN_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "sim/small_fn.h"

namespace diknn {

/// Simulation time in seconds since the start of the run.
using SimTime = double;

/// Opaque handle for a scheduled event, used for cancellation. Id 0 is
/// never issued and acts as a null handle. Ids encode
/// (generation << 32) | (pool slot + 1), so a handle kept past its
/// event's firing can never cancel an unrelated event that reused the
/// slot.
using EventId = uint64_t;

/// Engine observability counters (all monotone except the sizes).
struct EngineStats {
  uint64_t events_pushed = 0;
  uint64_t events_fired = 0;
  uint64_t events_cancelled = 0;
  /// Pushes that landed in a wheel bucket (incl. the current bucket).
  uint64_t wheel_scheduled = 0;
  /// Pushes beyond the wheel horizon, parked in the overflow heap.
  uint64_t overflow_scheduled = 0;
  /// Overflow entries migrated into a bucket as the cursor reached them.
  uint64_t overflow_migrated = 0;
  /// Callbacks stored inline in the pool slot vs heap-allocated.
  uint64_t inline_callbacks = 0;
  uint64_t heap_callbacks = 0;
  /// High-water marks: live events, resident entry references (live +
  /// not-yet-reclaimed cancelled), and slab pool slots ever allocated.
  uint64_t peak_live = 0;
  uint64_t peak_resident = 0;
  uint64_t peak_pool_slots = 0;
};

/// Min-ordered event queue: events fire in (time, insertion sequence)
/// order, so events at the same timestamp fire FIFO, which keeps protocol
/// handshakes deterministic (see docs/ENGINE.md).
class EventQueue {
 public:
  EventQueue() = default;

  // Non-copyable: callbacks capture simulator state.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Wheel geometry: 1024 buckets of 1 ms — a ~1 s horizon sized to the
  /// beacon/MAC timescale (backoffs, ACK timeouts, frame completions and
  /// beacon rounds all land in the wheel; multi-second deadlines go to
  /// the overflow heap).
  static constexpr int kWheelBits = 10;
  static constexpr int kWheelSlots = 1 << kWheelBits;
  static constexpr double kSlotWidthS = 1e-3;

  /// Schedules `fn` to fire at absolute time `t`. Returns a handle that
  /// can be passed to Cancel(). Accepts any `void()` callable; captures
  /// up to SmallFn::kInlineBytes are stored without allocation.
  template <typename F>
  EventId Push(SimTime t, F&& fn) {
    return PushFn(t, SmallFn(std::forward<F>(fn)));
  }

  /// Cancels a pending event in O(1): the callback is destroyed
  /// immediately and the slot is returned to the pool. Cancelling an
  /// already-fired, already-cancelled, or unknown id is a harmless no-op.
  void Cancel(EventId id);

  /// True while `id` is scheduled and neither fired nor cancelled.
  bool IsPending(EventId id) const;

  /// True when no live (non-cancelled) events remain.
  bool Empty() const { return live_count_ == 0; }

  /// Number of live events. (See ResidentEntries() for what is actually
  /// resident in memory.)
  size_t Size() const { return live_count_; }

  /// Entry references currently resident in the engine's containers:
  /// live events plus cancelled entries whose reference has not yet been
  /// reclaimed. A cancelled event's callback and pool slot are reclaimed
  /// at Cancel() time; only a POD reference lingers (bounded by the
  /// churn inside one wheel horizon).
  size_t ResidentEntries() const { return resident_; }

  /// Slab pool slots ever allocated.
  size_t PooledSlots() const { return pool_.size(); }

  /// Counters; `peak_pool_slots` mirrors PooledSlots().
  const EngineStats& stats() const { return stats_; }

  /// Timestamp of the earliest live event. Requires !Empty().
  SimTime NextTime();

  /// Removes and returns the earliest live event's callback, reclaiming
  /// any cancelled entries it advances past. Requires !Empty().
  SmallFn Pop(SimTime* time_out);

 private:
  static constexpr uint32_t kNilIndex = 0xffffffffu;
  static constexpr int64_t kNoBucket = -1;

  /// 24-byte POD reference to a pooled event, stored in wheel buckets,
  /// the active run, and the overflow heap.
  struct Ref {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };

  /// Slab pool slot. `gen` is bumped every time the slot is freed, so
  /// stale EventIds can never touch a successor event.
  struct PoolSlot {
    SmallFn fn;
    uint32_t gen = 1;
    uint32_t next_free = kNilIndex;
    bool live = false;
  };

  static int64_t BucketOf(SimTime t) {
    return static_cast<int64_t>(t * (1.0 / kSlotWidthS));
  }

  EventId PushFn(SimTime t, SmallFn fn);

  uint32_t AllocSlot(SmallFn fn);
  void FreeSlot(uint32_t index);
  bool IsLiveRef(const Ref& ref) const {
    return pool_[ref.slot].live && pool_[ref.slot].gen == ref.gen;
  }

  // Makes run_[run_head_] the earliest live event, advancing the bucket
  // cursor and migrating overflow entries as needed. Requires !Empty().
  void EnsureRunReady();
  // Smallest occupied wheel bucket in (cur_bucket_, cur_bucket_ +
  // kWheelSlots), or kNoBucket.
  int64_t NextOccupiedWheelBucket() const;
  void SetOccupied(int64_t bucket);
  void ClearOccupied(int64_t bucket);

  std::vector<PoolSlot> pool_;
  uint32_t free_head_ = kNilIndex;
  std::array<std::vector<Ref>, kWheelSlots> wheel_;
  std::array<uint64_t, kWheelSlots / 64> occupancy_ = {};
  int64_t cur_bucket_ = 0;          // Bucket the run was drawn from.
  std::vector<Ref> run_;            // Current bucket, (time, seq)-sorted.
  size_t run_head_ = 0;
  std::vector<Ref> overflow_;       // Min-heap beyond the wheel horizon.
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  size_t resident_ = 0;
  EngineStats stats_;
};

}  // namespace diknn

#endif  // DIKNN_SIM_EVENT_QUEUE_H_
