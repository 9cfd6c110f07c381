#include "core/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ring_buffer.h"
#include "core/rng.h"

namespace diknn {
namespace {

TEST(FlatMapTest, InsertFindErase) {
  FlatMap<uint64_t, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7u), nullptr);

  auto [kv, inserted] = map.TryEmplace(7u, 42);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(kv->second, 42);
  EXPECT_FALSE(map.TryEmplace(7u, 99).second);
  EXPECT_EQ(*map.find(7u), 42);
  EXPECT_EQ(map.size(), 1u);

  EXPECT_EQ(map.erase(7u), 1u);
  EXPECT_EQ(map.erase(7u), 0u);
  EXPECT_TRUE(map.empty());
}

TEST(FlatMapTest, OperatorBracketDefaultConstructs) {
  FlatMap<uint64_t, std::vector<int>> map;
  map[3].push_back(1);
  map[3].push_back(2);
  EXPECT_EQ(map[3].size(), 2u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, MatchesUnorderedMapUnderChurn) {
  FlatMap<uint64_t, uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(123);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 500));
    switch (rng.UniformInt(0, 3)) {
      case 0:
      case 1: {
        map.InsertOrAssign(key, key * 3);
        ref[key] = key * 3;
        break;
      }
      case 2: {
        EXPECT_EQ(map.erase(key), ref.erase(key));
        break;
      }
      default: {
        const uint64_t* v = map.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v != nullptr) {
          EXPECT_EQ(*v, it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  // Full-content cross-check via iteration.
  size_t visited = 0;
  map.ForEach([&](uint64_t k, uint64_t v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatMapTest, BackwardShiftKeepsCollidingChainsReachable) {
  // Keys engineered to collide: with a power-of-two table all these share
  // low hash bits only probabilistically, so instead hammer a small range
  // and erase from the middle of chains.
  FlatMap<uint64_t, int> map;
  for (uint64_t k = 0; k < 64; ++k) map.InsertOrAssign(k, static_cast<int>(k));
  for (uint64_t k = 0; k < 64; k += 2) EXPECT_EQ(map.erase(k), 1u);
  for (uint64_t k = 0; k < 64; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(map.find(k), nullptr) << k;
    } else {
      ASSERT_NE(map.find(k), nullptr) << k;
      EXPECT_EQ(*map.find(k), static_cast<int>(k));
    }
  }
}

TEST(FlatMapTest, EraseIfReexaminesShiftedSlots) {
  FlatMap<uint64_t, int> map;
  for (uint64_t k = 0; k < 1000; ++k) {
    map.InsertOrAssign(k, static_cast<int>(k % 7));
  }
  const size_t erased = map.EraseIf(
      [](uint64_t, int v) { return v == 3; });
  size_t expected = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    if (k % 7 == 3) ++expected;
  }
  EXPECT_EQ(erased, expected);
  EXPECT_EQ(map.size(), 1000 - expected);
  map.ForEach([](uint64_t, int v) { EXPECT_NE(v, 3); });
}

TEST(FlatMapTest, CapacityRetainedAcrossClear) {
  FlatMap<uint64_t, int> map;
  for (uint64_t k = 0; k < 1000; ++k) map.InsertOrAssign(k, 1);
  const size_t cap = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap);
  for (uint64_t k = 0; k < 1000; ++k) map.InsertOrAssign(k, 1);
  EXPECT_EQ(map.capacity(), cap);  // Refill must not regrow.
}

TEST(FlatMapTest, MoveOnlyValues) {
  FlatMap<uint64_t, std::unique_ptr<int>> map;
  map.TryEmplace(1u, std::make_unique<int>(5));
  // Force growth so slots move.
  for (uint64_t k = 2; k < 200; ++k) {
    map.TryEmplace(k, std::make_unique<int>(static_cast<int>(k)));
  }
  ASSERT_NE(map.find(1u), nullptr);
  EXPECT_EQ(**map.find(1u), 5);
  ASSERT_NE(map.find(150u), nullptr);
  EXPECT_EQ(**map.find(150u), 150);
}

TEST(FlatMapTest, DeterministicIterationOrder) {
  // Same insertion/erasure history => same iteration order, every time.
  auto build = [] {
    FlatMap<uint64_t, int> map;
    for (uint64_t k = 0; k < 300; ++k) map.InsertOrAssign(k * 17, 1);
    for (uint64_t k = 0; k < 300; k += 3) map.erase(k * 17);
    std::vector<uint64_t> order;
    map.ForEach([&](uint64_t k, int) { order.push_back(k); });
    return order;
  };
  EXPECT_EQ(build(), build());
}

TEST(FlatSetTest, InsertEraseContains) {
  FlatSet<uint64_t> set;
  EXPECT_TRUE(set.insert(9));
  EXPECT_FALSE(set.insert(9));
  EXPECT_TRUE(set.contains(9));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.erase(9), 1u);
  EXPECT_FALSE(set.contains(9));

  std::set<uint64_t> seen;
  for (uint64_t k = 0; k < 100; ++k) set.insert(k * k);
  set.ForEach([&](uint64_t k) { seen.insert(k); });
  EXPECT_EQ(seen.size(), set.size());
}

TEST(FlatMapTest, NegativeIntKeys) {
  FlatMap<int, int> map;
  map.InsertOrAssign(-2, 7);  // kInvalidNodeId-style keys must round-trip.
  map.InsertOrAssign(5, 8);
  ASSERT_NE(map.find(-2), nullptr);
  EXPECT_EQ(*map.find(-2), 7);
  EXPECT_EQ(map.erase(-2), 1u);
  EXPECT_EQ(map.find(-2), nullptr);
  EXPECT_NE(map.find(5), nullptr);
}

TEST(RingBufferTest, FifoOrderAcrossGrowth) {
  RingBuffer<int> ring;
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  EXPECT_EQ(ring.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBufferTest, MatchesDequeUnderChurn) {
  RingBuffer<uint64_t> ring;
  std::deque<uint64_t> ref;
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    if (rng.UniformInt(0, 2) != 0) {
      const uint64_t v = static_cast<uint64_t>(i);
      ring.push_back(v);
      ref.push_back(v);
    } else if (!ref.empty()) {
      EXPECT_EQ(ring.front(), ref.front());
      ring.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (!ref.empty()) {
      const size_t mid = ref.size() / 2;
      ASSERT_EQ(ring[mid], ref[mid]);
    }
  }
}

TEST(RingBufferTest, CapacityRetainedAndWrapsWithoutAllocation) {
  RingBuffer<int> ring;
  for (int i = 0; i < 64; ++i) ring.push_back(i);
  ring.clear();
  const size_t cap = ring.capacity();
  // Push/pop cycles far beyond capacity; the head wraps, capacity stays.
  for (int i = 0; i < 1000; ++i) {
    ring.push_back(i);
    EXPECT_EQ(ring.front(), i);
    ring.pop_front();
  }
  EXPECT_EQ(ring.capacity(), cap);
}

TEST(RingBufferTest, PopReleasesOwnedResources) {
  RingBuffer<std::shared_ptr<int>> ring;
  auto obj = std::make_shared<int>(5);
  ring.push_back(obj);
  EXPECT_EQ(obj.use_count(), 2);
  ring.pop_front();
  EXPECT_EQ(obj.use_count(), 1);  // Slot reset eagerly, not on wrap.
}

}  // namespace
}  // namespace diknn
