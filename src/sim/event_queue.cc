#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "core/alloc_probe.h"

namespace diknn {

namespace {

// Strict (time, seq) order of the run sort.
constexpr auto kRefBefore = [](const auto& a, const auto& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
};
// Inverted comparator: std::push_heap/pop_heap build a max-heap, so
// feeding them "greater" yields the overflow tier's min-heap.
constexpr auto kRefAfter = [](const auto& a, const auto& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.seq > b.seq;
};

}  // namespace

EventId EventQueue::PushFn(SimTime t, SmallFn fn) {
  // Wheel buckets, the sorted run, the overflow heap and the slot pool
  // all grow to a high-water mark and are recycled thereafter: engine
  // capacity, excluded from the caller's transient allocation counters.
  // (An oversized callback's heap spill happened at the call site, before
  // this function, and is attributed there.)
  AllocScopePause capacity;
  const bool stored_inline = fn.is_inline();
  const uint32_t slot = AllocSlot(std::move(fn));
  const Ref ref{t, next_seq_++, slot, pool_[slot].gen};

  const int64_t b = BucketOf(t);
  if (b <= cur_bucket_) {
    // Lands in the bucket being drained (or, for a misuse-tolerant
    // past-time push, before it): merge into the sorted run. The new
    // event carries the highest sequence number, so among equal
    // timestamps it goes last: FIFO within the timestamp.
    auto it = std::upper_bound(run_.begin() + run_head_, run_.end(), ref,
                               kRefBefore);
    run_.insert(it, ref);
    ++stats_.wheel_scheduled;
  } else if (b < cur_bucket_ + kWheelSlots) {
    wheel_[b & (kWheelSlots - 1)].push_back(ref);
    SetOccupied(b);
    ++stats_.wheel_scheduled;
  } else {
    overflow_.push_back(ref);
    std::push_heap(overflow_.begin(), overflow_.end(), kRefAfter);
    ++stats_.overflow_scheduled;
  }

  ++live_count_;
  ++resident_;
  ++stats_.events_pushed;
  if (stored_inline) {
    ++stats_.inline_callbacks;
  } else {
    ++stats_.heap_callbacks;
  }
  stats_.peak_live = std::max<uint64_t>(stats_.peak_live, live_count_);
  stats_.peak_resident = std::max<uint64_t>(stats_.peak_resident, resident_);
  return (static_cast<EventId>(pool_[slot].gen) << 32) |
         static_cast<EventId>(slot + 1);
}

uint32_t EventQueue::AllocSlot(SmallFn fn) {
  uint32_t index;
  if (free_head_ != kNilIndex) {
    index = free_head_;
    free_head_ = pool_[index].next_free;
  } else {
    index = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back();
    stats_.peak_pool_slots = pool_.size();
  }
  PoolSlot& slot = pool_[index];
  slot.fn = std::move(fn);
  slot.live = true;
  return index;
}

void EventQueue::FreeSlot(uint32_t index) {
  PoolSlot& slot = pool_[index];
  slot.fn.Reset();
  slot.live = false;
  ++slot.gen;  // Invalidate every outstanding EventId for this slot.
  slot.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::Cancel(EventId id) {
  const uint64_t low = id & 0xffffffffu;
  if (low == 0) return;
  const uint32_t slot = static_cast<uint32_t>(low - 1);
  if (slot >= pool_.size()) return;
  if (!pool_[slot].live || pool_[slot].gen != (id >> 32)) return;
  FreeSlot(slot);
  --live_count_;
  ++stats_.events_cancelled;
}

bool EventQueue::IsPending(EventId id) const {
  const uint64_t low = id & 0xffffffffu;
  if (low == 0) return false;
  const uint32_t slot = static_cast<uint32_t>(low - 1);
  if (slot >= pool_.size()) return false;
  return pool_[slot].live && pool_[slot].gen == (id >> 32);
}

void EventQueue::SetOccupied(int64_t bucket) {
  const size_t index = static_cast<size_t>(bucket & (kWheelSlots - 1));
  occupancy_[index >> 6] |= uint64_t{1} << (index & 63);
}

void EventQueue::ClearOccupied(int64_t bucket) {
  const size_t index = static_cast<size_t>(bucket & (kWheelSlots - 1));
  occupancy_[index >> 6] &= ~(uint64_t{1} << (index & 63));
}

int64_t EventQueue::NextOccupiedWheelBucket() const {
  // Scan the occupancy bitmap word-wise, starting just after the cursor
  // and wrapping. The cursor's own bit is always clear (cleared when its
  // bucket was drawn into the run), so any set bit found maps uniquely
  // to a bucket in (cur_bucket_, cur_bucket_ + kWheelSlots).
  int64_t off = 1;
  while (off < kWheelSlots) {
    const int64_t b = cur_bucket_ + off;
    const size_t index = static_cast<size_t>(b & (kWheelSlots - 1));
    const uint64_t bits = occupancy_[index >> 6] >> (index & 63);
    if (bits != 0) {
      const int step = std::countr_zero(bits);
      assert(off + step < kWheelSlots);
      return b + step;
    }
    off += 64 - static_cast<int64_t>(index & 63);
  }
  return kNoBucket;
}

void EventQueue::EnsureRunReady() {
  AllocScopePause capacity;  // Run-buffer growth during bucket draws.
  for (;;) {
    // Reclaim cancelled references at the head of the run.
    while (run_head_ < run_.size() && !IsLiveRef(run_[run_head_])) {
      ++run_head_;
      --resident_;
    }
    if (run_head_ < run_.size()) return;

    assert(live_count_ > 0 && "EnsureRunReady on an empty queue");
    run_.clear();
    run_head_ = 0;

    // Next bucket: nearest occupied wheel slot vs. the overflow front.
    int64_t next = NextOccupiedWheelBucket();
    if (!overflow_.empty()) {
      const int64_t overflow_bucket = BucketOf(overflow_.front().time);
      if (next == kNoBucket || overflow_bucket < next) {
        next = overflow_bucket;
      }
    }
    assert(next != kNoBucket && "live events but no occupied bucket");
    cur_bucket_ = next;

    // Draw the bucket: wheel slot contents (the swap recycles the run's
    // capacity into the emptied slot) plus any overflow entries whose
    // time has rolled into this bucket.
    std::vector<Ref>& bucket = wheel_[next & (kWheelSlots - 1)];
    run_.swap(bucket);
    ClearOccupied(next);
    while (!overflow_.empty() &&
           BucketOf(overflow_.front().time) == next) {
      std::pop_heap(overflow_.begin(), overflow_.end(), kRefAfter);
      run_.push_back(overflow_.back());
      overflow_.pop_back();
      ++stats_.overflow_migrated;
    }
    // Buckets partition the time axis monotonically, so sorting one
    // bucket by (time, seq) yields the global (time, seq) order.
    std::sort(run_.begin(), run_.end(), kRefBefore);
  }
}

SimTime EventQueue::NextTime() {
  assert(live_count_ > 0);
  EnsureRunReady();
  return run_[run_head_].time;
}

SmallFn EventQueue::Pop(SimTime* time_out) {
  assert(live_count_ > 0);
  EnsureRunReady();
  const Ref ref = run_[run_head_];
  ++run_head_;
  --resident_;
  PoolSlot& slot = pool_[ref.slot];
  SmallFn fn = std::move(slot.fn);
  FreeSlot(ref.slot);
  --live_count_;
  ++stats_.events_fired;
  if (time_out != nullptr) *time_out = ref.time;
  return fn;
}

}  // namespace diknn
