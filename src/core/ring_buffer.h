// Allocation-free FIFO ring over a power-of-two vector.
//
// std::deque allocates and frees ~512-byte blocks as elements stream
// through it, which shows up as steady-state churn on the packet plane's
// allocation counters (the MAC outbound queue drains one entry per
// frame). RingBuffer keeps one flat buffer that grows geometrically and
// is then reused forever.

#ifndef DIKNN_CORE_RING_BUFFER_H_
#define DIKNN_CORE_RING_BUFFER_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/alloc_probe.h"

namespace diknn {

template <typename T>
class RingBuffer {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return buffer_.size(); }

  void push_back(T value) {
    if (size_ == buffer_.size()) Grow();
    buffer_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  T& front() {
    assert(size_ > 0);
    return buffer_[head_];
  }
  const T& front() const {
    assert(size_ > 0);
    return buffer_[head_];
  }

  void pop_front() {
    assert(size_ > 0);
    buffer_[head_] = T{};  // Release owned resources eagerly.
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// i-th element from the front (0 = front).
  T& operator[](size_t i) {
    assert(i < size_);
    return buffer_[(head_ + i) & mask_];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return buffer_[(head_ + i) & mask_];
  }

  void clear() {
    while (!empty()) pop_front();
  }

  /// Pre-sizes the buffer to hold at least `n` elements (rounded up to a
  /// power of two) so bounded FIFOs never grow mid-run.
  void reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap < n) cap *= 2;
    if (cap > buffer_.size()) Rebuild(cap);
  }

 private:
  static constexpr size_t kMinCapacity = 8;

  void Grow() {
    Rebuild(buffer_.empty() ? kMinCapacity : buffer_.size() * 2);
  }

  void Rebuild(size_t new_cap) {
    // Geometric growth to a retained high-water mark: capacity, excluded
    // from per-operation allocation attribution.
    AllocScopePause capacity;
    std::vector<T> next(new_cap);
    for (size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buffer_[(head_ + i) & mask_]);
    }
    buffer_ = std::move(next);
    head_ = 0;
    mask_ = new_cap - 1;
  }

  std::vector<T> buffer_;
  size_t head_ = 0;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace diknn

#endif  // DIKNN_CORE_RING_BUFFER_H_
