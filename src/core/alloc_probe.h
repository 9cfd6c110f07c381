// Per-subsystem heap-allocation accounting for the allocation-free
// packet plane (docs/PACKET_PLANE.md).
//
// The global operator new/delete are replaced (alloc_probe.cc) with thin
// wrappers over malloc/free that, when a scope is armed on the current
// thread, count every allocation into that scope's AllocCounters. Scopes
// nest (save/restore), so the channel can attribute its own work to `net`
// while a protocol handler running inside a delivery event re-tags its
// section as `knn`. With no scope armed the wrappers are a single
// thread_local load — effectively free — and sanitizer builds keep
// working because the wrappers defer to the (intercepted) malloc/free.
//
// The counters gate the steady state: after warmup the net plane performs
// zero allocations per frame, enforced by bench_micro's self-check and by
// scripts/check_all.sh on the --metrics-out JSON.

#ifndef DIKNN_CORE_ALLOC_PROBE_H_
#define DIKNN_CORE_ALLOC_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace diknn {

/// Allocation tallies for one subsystem. Monotone; reset by the owner.
struct AllocCounters {
  uint64_t allocations = 0;
  uint64_t bytes = 0;

  void Reset() {
    allocations = 0;
    bytes = 0;
  }
};

namespace alloc_probe {

/// Counters armed on the current thread (nullptr = not counting).
AllocCounters* Current();

/// Arms `counters` on the current thread, returning the previous value
/// for restoration. Prefer the AllocScope RAII below.
AllocCounters* Exchange(AllocCounters* counters);

}  // namespace alloc_probe

/// Attributes allocations on this thread to `counters` for the scope's
/// lifetime. Nests: the previous attribution is restored on destruction.
class AllocScope {
 public:
  explicit AllocScope(AllocCounters* counters)
      : previous_(alloc_probe::Exchange(counters)) {}
  ~AllocScope() { alloc_probe::Exchange(previous_); }

  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  AllocCounters* previous_;
};

/// Suspends attribution for the scope's lifetime. Used by the tracer so
/// recording spans never shows up in the subsystem counters — traced runs
/// must publish byte-identical metrics to untraced ones (obs_noop_test).
class AllocScopePause {
 public:
  AllocScopePause() : previous_(alloc_probe::Exchange(nullptr)) {}
  ~AllocScopePause() { alloc_probe::Exchange(previous_); }

  AllocScopePause(const AllocScopePause&) = delete;
  AllocScopePause& operator=(const AllocScopePause&) = delete;

 private:
  AllocCounters* previous_;
};

/// Appends to a vector whose capacity is a retained high-water mark. Only
/// the growth step runs unattributed (like FlatMap's rehash), so once the
/// vector has reached its high water an append never allocates.
template <typename T>
void PushBackRetained(std::vector<T>* v, T value) {
  if (v->size() == v->capacity()) {
    AllocScopePause capacity;
    v->reserve(v->empty() ? 8 : 2 * v->capacity());
  }
  v->push_back(std::move(value));
}

/// Overwrites `dst` with `src` under the same high-water rule.
template <typename T>
void AssignRetained(std::vector<T>* dst, const std::vector<T>& src) {
  if (dst->capacity() < src.size()) {
    AllocScopePause capacity;
    dst->reserve(src.size());
  }
  dst->assign(src.begin(), src.end());
}

}  // namespace diknn

#endif  // DIKNN_CORE_ALLOC_PROBE_H_
