#include "net/packet_pool.h"

#include <array>
#include <new>

namespace diknn {
namespace packet_pool_detail {
namespace {

// Size classes in 64-byte granules. Message payloads plus their shared_ptr
// control blocks are small (a BeaconMessage block is under 128 bytes; a
// GeoRoutedMessage block under 256); anything above the largest class is
// rare enough to pay the heap price.
constexpr size_t kGranule = 64;
constexpr size_t kNumClasses = 16;  // Up to 1 KiB.

struct ThreadCaches {
  std::array<std::vector<void*>, kNumClasses> free_lists;
  MessagePoolStats stats;

  ~ThreadCaches() {
    for (auto& list : free_lists) {
      for (void* p : list) ::operator delete(p);
    }
  }
};

ThreadCaches& Caches() {
  thread_local ThreadCaches caches;
  return caches;
}

// Class index for `size`, or kNumClasses when unpooled.
inline size_t ClassOf(size_t size) {
  return (size + kGranule - 1) / kGranule - 1;
}

}  // namespace

void* AcquireBlock(size_t size) {
  ThreadCaches& caches = Caches();
  ++caches.stats.live;
  const size_t cls = ClassOf(size);
  if (cls < kNumClasses) {
    auto& list = caches.free_lists[cls];
    if (!list.empty()) {
      ++caches.stats.reuses;
      void* p = list.back();
      list.pop_back();
      return p;
    }
    // A cold size class mints pool capacity: the block recycles through
    // the freelist for the rest of the thread's life. fresh_allocations
    // tracks it; the caller's transient counters do not.
    ++caches.stats.fresh_allocations;
    AllocScopePause capacity;
    return ::operator new((cls + 1) * kGranule);
  }
  ++caches.stats.fresh_allocations;
  return ::operator new(size);
}

void ReleaseBlock(void* p, size_t size) {
  ThreadCaches& caches = Caches();
  --caches.stats.live;
  const size_t cls = ClassOf(size);
  if (cls < kNumClasses) {
    AllocScopePause capacity;  // Freelist vector growth only.
    caches.free_lists[cls].push_back(p);
    return;
  }
  ::operator delete(p);
}

MessagePoolStats& ThreadStats() { return Caches().stats; }

void NoteReusableAcquire(bool fresh) {
  MessagePoolStats& stats = Caches().stats;
  ++stats.live;
  if (fresh) {
    ++stats.fresh_allocations;
  } else {
    ++stats.reuses;
  }
}

void NoteReusableRelease() { --Caches().stats.live; }

}  // namespace packet_pool_detail

}  // namespace diknn
