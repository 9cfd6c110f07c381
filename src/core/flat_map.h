// Open-addressing flat hash containers for the packet plane's per-query
// bookkeeping.
//
// Why not std::unordered_map: the node-based standard containers allocate
// one heap node per element, so every per-query insert on the hot path —
// reply dedup sets, collection windows, hop counters — is a malloc, and
// every erase a free. FlatMap keeps keys and values in two parallel flat
// arrays with linear probing and backward-shift deletion; after the
// table has grown to its steady-state capacity, every insert/erase/find
// is allocation-free. That is the discipline the allocation-counter gate
// in bench_micro enforces (docs/PACKET_PLANE.md).
//
// Determinism: iteration order is a pure function of the insertion /
// erasure history (no pointer-derived hashing, no randomized seeds), so
// runs remain bit-identical across --jobs counts and repeated executions.
// Note that, exactly like std::unordered_map, the order is *arbitrary* —
// callers that need an order must sort. The repo-wide audit of
// behaviour-affecting iteration over unordered containers lives in
// docs/PACKET_PLANE.md.

#ifndef DIKNN_CORE_FLAT_MAP_H_
#define DIKNN_CORE_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/alloc_probe.h"
#include "core/splitmix.h"

namespace diknn {

/// Default integer mixer (splitmix64 finalizer): integral keys in this
/// codebase (query ids, CollectionKeys, node ids) are sequential, which
/// pure-identity hashing would turn into long probe clusters.
struct FlatHash {
  size_t operator()(uint64_t x) const {
    return static_cast<size_t>(SplitMix64(x));
  }
};

/// Open-addressing hash map: linear probing, power-of-two capacity,
/// backward-shift deletion (no tombstones, so probe lengths never rot).
/// Grows at 7/8 load; never shrinks — per-query containers are reused
/// across thousands of queries, and retaining capacity is the point.
template <typename Key, typename Value, typename Hash = FlatHash>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;

  FlatMap() = default;

  FlatMap(FlatMap&&) noexcept = default;
  FlatMap& operator=(FlatMap&&) noexcept = default;
  FlatMap(const FlatMap&) = default;
  FlatMap& operator=(const FlatMap&) = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Slots currently allocated (diagnostics; capacity is retained across
  /// clear()).
  size_t capacity() const { return slots_.size(); }

  void clear() {
    for (Slot& s : slots_) {
      if (s.used) {
        s.kv.~value_type();
        s.used = false;
      }
    }
    size_ = 0;
  }

  /// Pre-sizes the table for `n` elements without rehashing on the way.
  void reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 7 / 8 < n) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

  bool contains(const Key& key) const { return FindSlot(key) != kNpos; }
  size_t count(const Key& key) const { return contains(key) ? 1 : 0; }

  Value* find(const Key& key) {
    const size_t i = FindSlot(key);
    return i == kNpos ? nullptr : &slots_[i].kv.second;
  }
  const Value* find(const Key& key) const {
    const size_t i = FindSlot(key);
    return i == kNpos ? nullptr : &slots_[i].kv.second;
  }

  /// Inserts default-constructed value if absent; returns the value.
  Value& operator[](const Key& key) {
    return TryEmplace(key).first->second;
  }

  /// try_emplace: inserts Value(args...) if `key` is absent. Returns
  /// {pointer-to-pair, inserted}.
  template <typename... Args>
  std::pair<value_type*, bool> TryEmplace(const Key& key, Args&&... args) {
    MaybeGrow();
    size_t i = IndexFor(key);
    while (slots_[i].used) {
      if (slots_[i].kv.first == key) return {&slots_[i].kv, false};
      i = (i + 1) & mask_;
    }
    new (&slots_[i].kv) value_type(std::piecewise_construct,
                                   std::forward_as_tuple(key),
                                   std::forward_as_tuple(
                                       std::forward<Args>(args)...));
    slots_[i].used = true;
    ++size_;
    return {&slots_[i].kv, true};
  }

  /// Inserts or overwrites.
  void InsertOrAssign(const Key& key, Value value) {
    auto [kv, inserted] = TryEmplace(key, std::move(value));
    if (!inserted) kv->second = std::move(value);
  }

  /// Erases `key` if present; returns the number of erased entries (0/1).
  /// Backward-shift deletion: subsequent probe-chain entries are moved
  /// back so lookups never need tombstones.
  size_t erase(const Key& key) {
    size_t i = FindSlot(key);
    if (i == kNpos) return 0;
    EraseSlot(i);
    return 1;
  }

  /// Calls `fn(key, value)` for every entry. Safe against erasure of the
  /// *visited* entry only via EraseIf below; for arbitrary mutation
  /// collect keys first.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.used) fn(s.kv.first, s.kv.second);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.kv.first, s.kv.second);
    }
  }

  /// Erases every entry for which `pred(key, value)` is true; returns the
  /// number erased. Handles backward-shift re-examination correctly.
  template <typename Pred>
  size_t EraseIf(Pred&& pred) {
    size_t erased = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      // After EraseSlot(i) a shifted successor may land in slot i, so
      // re-test the same index until it stabilizes.
      while (slots_[i].used && pred(slots_[i].kv.first, slots_[i].kv.second)) {
        EraseSlot(i);
        ++erased;
      }
    }
    return erased;
  }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    union {
      value_type kv;  // Constructed iff `used`.
      char raw;
    };
    bool used = false;

    Slot() : raw(0) {}
    Slot(Slot&& other) noexcept : raw(0) {
      if (other.used) {
        new (&kv) value_type(std::move(other.kv));
        used = true;
      }
    }
    Slot(const Slot& other) : raw(0) {
      if (other.used) {
        new (&kv) value_type(other.kv);
        used = true;
      }
    }
    Slot& operator=(Slot&&) = delete;
    Slot& operator=(const Slot&) = delete;
    ~Slot() {
      if (used) kv.~value_type();
    }
  };

  size_t IndexFor(const Key& key) const {
    return hash_(static_cast<uint64_t>(key)) & mask_;
  }

  size_t FindSlot(const Key& key) const {
    if (slots_.empty()) return kNpos;
    size_t i = IndexFor(key);
    while (slots_[i].used) {
      if (slots_[i].kv.first == key) return i;
      i = (i + 1) & mask_;
    }
    return kNpos;
  }

  void EraseSlot(size_t i) {
    // Backward-shift: walk the probe chain after `i`; any entry whose
    // home slot precedes-or-equals the vacated hole (cyclically) moves
    // back into it.
    slots_[i].kv.~value_type();
    slots_[i].used = false;
    --size_;
    size_t hole = i;
    size_t j = (i + 1) & mask_;
    while (slots_[j].used) {
      const size_t home = IndexFor(slots_[j].kv.first);
      // Does `home` lie cyclically within (j, hole]? Then j cannot reach
      // home through the hole and must shift back into it.
      const bool between = ((j - home) & mask_) >= ((j - hole) & mask_);
      if (between) {
        new (&slots_[hole].kv) value_type(std::move(slots_[j].kv));
        slots_[hole].used = true;
        slots_[j].kv.~value_type();
        slots_[j].used = false;
        hole = j;
      }
      j = (j + 1) & mask_;
    }
  }

  void MaybeGrow() {
    if (slots_.empty()) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * 8 > slots_.size() * 7) {
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(size_t new_capacity) {
    assert((new_capacity & (new_capacity - 1)) == 0);
    // Table growth to a retained high-water mark: capacity, excluded from
    // per-operation allocation attribution (clear() keeps the slots).
    AllocScopePause capacity;
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_capacity);
    mask_ = new_capacity - 1;
    size_ = 0;
    for (Slot& s : old) {
      if (!s.used) continue;
      size_t i = IndexFor(s.kv.first);
      while (slots_[i].used) i = (i + 1) & mask_;
      new (&slots_[i].kv) value_type(std::move(s.kv));
      slots_[i].used = true;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  Hash hash_;
};

/// Open-addressing hash set over integral keys; same layout discipline as
/// FlatMap (the value array is simply absent).
template <typename Key, typename Hash = FlatHash>
class FlatSet {
 public:
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(size_t n) { map_.reserve(n); }

  bool contains(const Key& key) const { return map_.contains(key); }
  size_t count(const Key& key) const { return map_.count(key); }

  /// Returns true if newly inserted.
  bool insert(const Key& key) { return map_.TryEmplace(key).second; }
  size_t erase(const Key& key) { return map_.erase(key); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&fn](const Key& k, const Empty&) { fn(k); });
  }

 private:
  struct Empty {};
  FlatMap<Key, Empty, Hash> map_;
};

}  // namespace diknn

#endif  // DIKNN_CORE_FLAT_MAP_H_
