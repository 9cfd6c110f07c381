// Pooled storage for the packet plane: message payloads and in-flight
// frame state, recycled so the steady state performs zero heap
// allocations per frame (docs/PACKET_PLANE.md).
//
// Two pools with different shapes:
//
//  * MessagePool — allocation recycler behind `std::shared_ptr<const
//    Message>` payloads. `Make<T>(args...)` is a drop-in for
//    `std::make_shared<T>(args...)`: one block holds the control block
//    and the object, drawn from a thread-local size-class freelist, so
//    after warmup a beacon / MAC ACK / probe costs no allocation at all.
//    `MakeReusable<T>()` additionally keeps the *object* alive across
//    uses for types that own buffers (vectors of candidate entries,
//    itinerary info lists): on release the deleter calls `T::Reuse()` —
//    which must clear contents but keep capacity — and parks the object
//    in a per-type cache instead of destroying it.
//
//    Thread model: pools are thread-local because each simulation run is
//    confined to one worker thread (the experiment runner parallelizes
//    across runs, never within one). A payload released on a different
//    thread is simply recycled into that thread's cache — safe, just not
//    counted against the originating thread's live tally.
//
//  * FramePool<T> — a generation-tagged slab of frame slots, mirroring
//    the EventQueue's event pool (sim/event_queue.h). The channel parks a
//    frame's Packet, per-receiver corruption flags, and delivery batch in
//    a slot and schedules events that capture only {channel, handle} —
//    small enough for SmallFn's inline storage, so scheduling a delivery
//    no longer heap-allocates a closure. Stale handles (slot reused after
//    release) are detected by the generation tag and resolve to nullptr.

#ifndef DIKNN_NET_PACKET_POOL_H_
#define DIKNN_NET_PACKET_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/alloc_probe.h"

namespace diknn {

/// Per-thread pool traffic counters, exposed for tests and the metrics
/// registry. `live` counts checked-out units (blocks + reusable objects);
/// it returns to its baseline when every frame and payload has drained.
struct MessagePoolStats {
  uint64_t live = 0;
  uint64_t fresh_allocations = 0;  ///< Served by a real heap allocation.
  uint64_t reuses = 0;             ///< Served from a freelist / cache.
};

namespace packet_pool_detail {

/// Acquires a block of at least `size` bytes from the calling thread's
/// size-class freelist (falling back to the heap on a cold class).
void* AcquireBlock(size_t size);

/// Returns a block to the calling thread's freelist. `size` must be the
/// size passed to AcquireBlock.
void ReleaseBlock(void* p, size_t size);

MessagePoolStats& ThreadStats();

/// Counters for reusable-object caches (see MessagePool::MakeReusable).
void NoteReusableAcquire(bool fresh);
void NoteReusableRelease();

/// STL allocator over the thread-local block recycler. Single-element
/// allocations (the shared_ptr control-block path) recycle; array
/// allocations fall through to the heap.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT: converting ctor.

  T* allocate(size_t n) {
    if (n == 1) return static_cast<T*>(AcquireBlock(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) {
    if (n == 1) {
      ReleaseBlock(p, sizeof(T));
    } else {
      ::operator delete(p);
    }
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const {
    return true;
  }
};

/// Thread-local cache of live `T` objects for MakeReusable. Objects keep
/// their internal buffer capacity between uses; leftover objects are
/// destroyed at thread exit.
template <typename T>
class ReusableCache {
 public:
  static T* Acquire() {
    auto& items = Store().items;
    if (items.empty()) {
      NoteReusableAcquire(/*fresh=*/true);
      // A cold-cache object is pool capacity (it lives in the cache for
      // the rest of the thread), not a per-operation transient; keep it
      // off the subsystem allocation counters.
      AllocScopePause capacity;
      return new T();
    }
    NoteReusableAcquire(/*fresh=*/false);
    T* obj = items.back();
    items.pop_back();
    return obj;
  }

  static void Release(T* obj) {
    NoteReusableRelease();
    AllocScopePause capacity;  // Cache list growth only.
    Store().items.push_back(obj);
  }

 private:
  struct Cache {
    std::vector<T*> items;
    ~Cache() {
      for (T* p : items) delete p;
    }
  };
  static Cache& Store() {
    thread_local Cache cache;
    return cache;
  }
};

}  // namespace packet_pool_detail

/// Facade over the thread-local payload recycler.
class MessagePool {
 public:
  /// Drop-in replacement for std::make_shared<T>(args...): object and
  /// control block share one recycled block.
  template <typename T, typename... Args>
  static std::shared_ptr<T> Make(Args&&... args) {
    return std::allocate_shared<T>(packet_pool_detail::PoolAllocator<T>{},
                                   std::forward<Args>(args)...);
  }

  /// Pooled payload whose *object* survives between uses. Requires
  /// `void T::Reuse()` clearing contents while retaining buffer capacity.
  /// The returned object is in its post-Reuse state (or freshly
  /// default-constructed); the caller fills the fields.
  template <typename T>
  static std::shared_ptr<T> MakeReusable() {
    using Cache = packet_pool_detail::ReusableCache<T>;
    T* obj = Cache::Acquire();
    return std::shared_ptr<T>(
        obj,
        [](T* p) {
          p->Reuse();
          Cache::Release(p);
        },
        packet_pool_detail::PoolAllocator<T>{});
  }

  /// This thread's pool counters.
  static const MessagePoolStats& ThreadStats() {
    return packet_pool_detail::ThreadStats();
  }

  /// Units currently checked out on this thread.
  static uint64_t ThreadLive() { return ThreadStats().live; }
};

/// Generation-tagged slab of reusable `T` slots addressed by opaque
/// handles. `T` must be default-constructible and provide `void Reuse()`
/// (clear contents, keep capacity). Pointers returned by Get() are
/// invalidated by the next Acquire() (the slab may grow); re-resolve the
/// handle after any acquire.
template <typename T>
class FramePool {
 public:
  /// 0 is never a valid handle. Layout: (generation << 32) | (slot + 1).
  using Handle = uint64_t;
  static constexpr Handle kNullHandle = 0;

  /// Checks out a slot (recycling a released one when available) and
  /// returns its handle. The slot's value is default / post-Reuse state.
  Handle Acquire() {
    uint32_t index;
    if (free_head_ != kNilIndex) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
      ++stats_.reuses;
    } else {
      // Slab growth is pool capacity, tracked by fresh_allocations; it is
      // not charged to the acquiring subsystem's transient counters.
      AllocScopePause capacity;
      index = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
      ++stats_.fresh_allocations;
    }
    Slot& slot = slots_[index];
    slot.live = true;
    ++live_;
    return (static_cast<uint64_t>(slot.gen) << 32) | (index + 1u);
  }

  /// Resolves `handle`; nullptr if null, released, or recycled (stale
  /// generation).
  T* Get(Handle handle) {
    const uint32_t index = IndexOf(handle);
    if (index == kNilIndex) return nullptr;
    Slot& slot = slots_[index];
    if (!slot.live || slot.gen != static_cast<uint32_t>(handle >> 32)) {
      return nullptr;
    }
    return &slot.value;
  }

  /// Returns the slot to the freelist; its value is Reuse()d and its
  /// generation bumped so outstanding handles go stale. No-op when the
  /// handle is already stale.
  void Release(Handle handle) {
    const uint32_t index = IndexOf(handle);
    if (index == kNilIndex) return;
    Slot& slot = slots_[index];
    if (!slot.live || slot.gen != static_cast<uint32_t>(handle >> 32)) {
      return;
    }
    slot.value.Reuse();
    ++slot.gen;
    slot.live = false;
    slot.next_free = free_head_;
    free_head_ = index;
    --live_;
  }

  size_t live_count() const { return live_; }
  size_t capacity() const { return slots_.size(); }
  const MessagePoolStats& stats() const { return stats_; }

 private:
  static constexpr uint32_t kNilIndex = 0xffffffffu;

  struct Slot {
    T value;
    uint32_t gen = 0;
    uint32_t next_free = kNilIndex;
    bool live = false;
  };

  uint32_t IndexOf(Handle handle) const {
    if (handle == kNullHandle) return kNilIndex;
    const uint32_t index = static_cast<uint32_t>(handle & 0xffffffffu) - 1u;
    return index < slots_.size() ? index : kNilIndex;
  }

  std::vector<Slot> slots_;
  uint32_t free_head_ = kNilIndex;
  size_t live_ = 0;
  MessagePoolStats stats_;  // `live` unused here; see live_.
};

}  // namespace diknn

#endif  // DIKNN_NET_PACKET_POOL_H_
