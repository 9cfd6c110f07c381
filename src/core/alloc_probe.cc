// Replacement global operator new/delete with per-thread attribution.
// See alloc_probe.h for the contract. The wrappers call malloc/free so
// ASan/TSan/UBSan keep full heap interception underneath.

#include "core/alloc_probe.h"

#include <cstdlib>
#include <new>

namespace diknn {
namespace alloc_probe {
namespace {

thread_local AllocCounters* tl_counters = nullptr;

inline void* CountedAlloc(size_t size, size_t align) {
  AllocCounters* c = tl_counters;
  if (c != nullptr) {
    ++c->allocations;
    c->bytes += size;
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

AllocCounters* Current() { return tl_counters; }

AllocCounters* Exchange(AllocCounters* counters) {
  AllocCounters* previous = tl_counters;
  tl_counters = counters;
  return previous;
}

}  // namespace alloc_probe
}  // namespace diknn

// ---- global replacements ------------------------------------------------

void* operator new(size_t size) {
  return diknn::alloc_probe::CountedAlloc(size ? size : 1,
                                          alignof(std::max_align_t));
}
void* operator new[](size_t size) {
  return diknn::alloc_probe::CountedAlloc(size ? size : 1,
                                          alignof(std::max_align_t));
}
void* operator new(size_t size, std::align_val_t align) {
  return diknn::alloc_probe::CountedAlloc(size ? size : 1,
                                          static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return diknn::alloc_probe::CountedAlloc(size ? size : 1,
                                          static_cast<size_t>(align));
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return diknn::alloc_probe::CountedAlloc(size ? size : 1,
                                            alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  try {
    return diknn::alloc_probe::CountedAlloc(size ? size : 1,
                                            alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
