#include "sim/event_queue.h"

#include <array>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace diknn {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(3.0, [&] { order.push_back(3); });
  q.Push(1.0, [&] { order.push_back(1); });
  q.Push(2.0, [&] { order.push_back(2); });
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoWithinSameTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Push(1.0, [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) q.Pop(nullptr)();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, PopReportsTimestamp) {
  EventQueue q;
  q.Push(7.25, [] {});
  SimTime t = 0;
  q.Pop(&t);
  EXPECT_DOUBLE_EQ(t, 7.25);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.Push(1.0, [&] { fired = true; });
  q.Push(2.0, [] {});
  EXPECT_EQ(q.Size(), 2u);
  q.Cancel(id);
  EXPECT_EQ(q.Size(), 1u);
  while (!q.Empty()) q.Pop(nullptr)();
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.Push(1.0, [] {});
  q.Cancel(0);
  q.Cancel(9999);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue q;
  const EventId id = q.Push(1.0, [] {});
  q.Pop(nullptr)();
  q.Cancel(id);  // Must not corrupt the live count.
  EXPECT_TRUE(q.Empty());
  q.Push(2.0, [] {});
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueueTest, DoubleCancelIsNoop) {
  EventQueue q;
  const EventId id = q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  q.Cancel(id);
  q.Cancel(id);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueueTest, IsPendingTracksLifecycle) {
  EventQueue q;
  const EventId id = q.Push(1.0, [] {});
  EXPECT_TRUE(q.IsPending(id));
  q.Cancel(id);
  EXPECT_FALSE(q.IsPending(id));
  const EventId id2 = q.Push(2.0, [] {});
  q.Pop(nullptr);
  EXPECT_FALSE(q.IsPending(id2));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.Push(1.0, [] {});
  q.Push(5.0, [] {});
  q.Cancel(id);
  EXPECT_DOUBLE_EQ(q.NextTime(), 5.0);
}

TEST(EventQueueTest, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.Push(i % 100, [&] { ++fired; }));
  }
  for (size_t i = 0; i < ids.size(); i += 2) q.Cancel(ids[i]);
  EXPECT_EQ(q.Size(), 500u);
  SimTime last = -1;
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)();
    EXPECT_GE(t, last);  // Monotone.
    last = t;
  }
  EXPECT_EQ(fired, 500);
}

TEST(EventQueueTest, LiveVsResidentCounts) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(q.Push(0.1 * (i + 1), [] {}));
  EXPECT_EQ(q.Size(), 8u);
  EXPECT_EQ(q.ResidentEntries(), 8u);
  // Cancelling drops the live count immediately; the 24-byte reference
  // stays resident until the cursor passes it.
  for (int i = 0; i < 4; ++i) q.Cancel(ids[i]);
  EXPECT_EQ(q.Size(), 4u);
  EXPECT_EQ(q.ResidentEntries(), 8u);
  while (!q.Empty()) q.Pop(nullptr)();
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_EQ(q.ResidentEntries(), 0u);
}

TEST(EventQueueTest, CancelReleasesCallbackResourcesImmediately) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const EventId id = q.Push(1.0, [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());
  q.Cancel(id);  // O(1) slot invalidation destroys the capture now.
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueueTest, ResidentStaysBoundedUnderCancelHeavyChurn) {
  // MAC-style churn: every fired event schedules a short "ack timeout"
  // that is almost always cancelled before firing. The legacy heap let
  // tombstones (callback included) pile up until they surfaced; the
  // wheel reclaims the slot at Cancel() and only sheds bounded POD refs.
  EventQueue q;
  SimTime now = 0.0;
  EventId pending_timeout = 0;
  int fired = 0;
  for (int i = 0; i < 20000; ++i) {
    if (pending_timeout != 0) q.Cancel(pending_timeout);
    pending_timeout = q.Push(now + 0.003, [] {});
    q.Push(now + 0.0007, [&fired] { ++fired; });
    SimTime t;
    q.Pop(&t)();
    now = t;
    // Live never exceeds the 2 outstanding timers; resident may carry
    // cancelled refs for up to one wheel horizon but stays bounded.
    ASSERT_LE(q.Size(), 2u);
    ASSERT_LE(q.ResidentEntries(), 16u);
  }
  EXPECT_GT(fired, 0);
  // The slab recycles freed slots instead of growing with churn.
  EXPECT_LE(q.PooledSlots(), 16u);
  EXPECT_EQ(q.stats().events_cancelled, 19999u);
}

TEST(EventQueueTest, GenerationTagPreventsStaleCancelAfterSlotReuse) {
  EventQueue q;
  const EventId first = q.Push(1.0, [] {});
  q.Pop(nullptr)();  // Fires `first`; its pool slot returns to the pool.
  bool fired = false;
  const EventId second = q.Push(2.0, [&fired] { fired = true; });
  EXPECT_NE(first, second);
  q.Cancel(first);  // Stale handle: must not touch the slot's new tenant.
  EXPECT_TRUE(q.IsPending(second));
  q.Pop(nullptr)();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, SmallCallbacksStoredInline) {
  EventQueue q;
  int x = 0;
  q.Push(1.0, [&x] { ++x; });  // One captured pointer: inline.
  std::array<char, 200> big = {};
  q.Push(2.0, [&x, big] { x += big[0]; });  // Oversized: heap fallback.
  EXPECT_EQ(q.stats().inline_callbacks, 1u);
  EXPECT_EQ(q.stats().heap_callbacks, 1u);
  while (!q.Empty()) q.Pop(nullptr)();
  EXPECT_EQ(x, 1);
}

TEST(EventQueueTest, OverflowTierFiresInOrderAcrossWheelRollover) {
  // Times spanning far past the ~1 s wheel horizon: far-future events
  // park in the overflow heap and must migrate into buckets in order as
  // the cursor rolls the wheel over many times.
  EventQueue q;
  std::vector<int> order;
  q.Push(500.0, [&] { order.push_back(4); });
  q.Push(0.0005, [&] { order.push_back(0); });
  q.Push(2.5, [&] { order.push_back(2); });
  q.Push(0.9, [&] { order.push_back(1); });
  q.Push(2.5, [&] { order.push_back(3); });  // FIFO at equal time.
  EXPECT_GT(q.stats().overflow_scheduled, 0u);
  SimTime last = -1.0;
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)();
    EXPECT_GE(t, last);
    last = t;
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, PushDuringDrainOfSameTimestampKeepsFifo) {
  // An event scheduling another event at the *same* timestamp must see
  // it fire after every already-queued event at that timestamp (the new
  // event has the highest sequence number) — the property protocol
  // handshakes rely on, here exercised against the sorted-run insert.
  EventQueue q;
  std::vector<int> order;
  q.Push(1.0, [&] {
    order.push_back(0);
    q.Push(1.0, [&] { order.push_back(2); });
  });
  q.Push(1.0, [&] { order.push_back(1); });
  while (!q.Empty()) q.Pop(nullptr)();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace diknn
