// Unit tests for the engine's move-based event heap: its pop order must
// equal std::priority_queue's under a total order.
#include "sim/event_heap.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace scc::sim {
namespace {

TEST(MoveHeap, PopsAscendingUnderTotalOrder) {
  MoveHeap<int, std::greater<>> heap;
  Xoshiro256 rng(7);
  std::vector<int> values;
  for (int i = 0; i < 1000; ++i)
    values.push_back(static_cast<int>(rng.below(1 << 20)));
  for (int v : values) heap.push(std::move(v));
  ASSERT_EQ(heap.size(), values.size());
  int prev = -1;
  while (!heap.empty()) {
    const int got = heap.pop_min();
    EXPECT_LE(prev, got);
    prev = got;
  }
}

TEST(MoveHeap, MatchesPriorityQueuePopOrderUnderInterleavedChurn) {
  // The engine interleaves pushes and pops; with unique keys both heap
  // implementations must agree on every pop (this is the determinism
  // argument for swapping std::priority_queue out of the engine).
  MoveHeap<std::uint64_t, std::greater<>> heap;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      reference;
  Xoshiro256 rng(11);
  std::uint64_t unique = 0;
  for (int round = 0; round < 2000; ++round) {
    if (reference.empty() || rng.below(3) != 0) {
      // Unique key: (random << 16) | counter.
      const std::uint64_t key = (rng.below(1 << 12) << 16) | unique++;
      std::uint64_t copy = key;
      heap.push(std::move(copy));
      reference.push(key);
    } else {
      ASSERT_FALSE(heap.empty());
      EXPECT_EQ(heap.pop_min(), reference.top());
      reference.pop();
    }
  }
  while (!reference.empty()) {
    EXPECT_EQ(heap.pop_min(), reference.top());
    reference.pop();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(MoveHeap, MovesElementsInsteadOfCopying) {
  // unique_ptr is move-only: this does not compile, let alone run, if the
  // heap ever copies.
  MoveHeap<std::unique_ptr<int>, decltype([](const std::unique_ptr<int>& a,
                                             const std::unique_ptr<int>& b) {
             // Empty slots (the transient hole) sort last.
             if (!a || !b) return static_cast<bool>(b);
             return *a > *b;
           })>
      heap;
  for (int v : {5, 1, 4, 2, 3}) heap.push(std::make_unique<int>(v));
  for (int want = 1; want <= 5; ++want) {
    const std::unique_ptr<int> got = heap.pop_min();
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, want);
  }
}

TEST(MoveHeap, RandomizedDifferentialAgainstPriorityQueueWithTies) {
  // Property test of the engine's real element shape: move-only payloads
  // under a (key, seq) total order where keys COLLIDE on purpose -- the
  // engine's equal-time batches -- across randomized interleaved push/pop
  // schedules. The reference is std::priority_queue over the same (key,
  // seq) pairs; every pop must agree on the key, the tie-breaking seq, and
  // the payload carried by the move-only box.
  struct Item {
    std::uint64_t key = 0;
    std::uint64_t seq = 0;
    std::unique_ptr<std::uint64_t> payload;  // forces move-only handling
  };
  struct Greater {
    bool operator()(const Item& a, const Item& b) const {
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };
  for (const std::uint64_t seed : {3u, 17u, 101u}) {
    MoveHeap<Item, Greater> heap;
    std::priority_queue<std::pair<std::uint64_t, std::uint64_t>,
                        std::vector<std::pair<std::uint64_t, std::uint64_t>>,
                        std::greater<>>
        reference;
    Xoshiro256 rng(seed);
    std::uint64_t seq = 0;
    for (int round = 0; round < 5000; ++round) {
      if (reference.empty() || rng.below(5) < 3) {
        // 8 distinct keys over thousands of pushes: every key is a big
        // equal-time batch, so the seq tie-break does the real ordering.
        const std::uint64_t key = rng.below(8);
        heap.push(Item{key, seq,
                       std::make_unique<std::uint64_t>(key * 1000 + seq)});
        reference.emplace(key, seq);
        ++seq;
      } else {
        const Item got = heap.pop_min();
        ASSERT_EQ(got.key, reference.top().first) << "seed " << seed;
        ASSERT_EQ(got.seq, reference.top().second) << "seed " << seed;
        ASSERT_TRUE(got.payload);
        EXPECT_EQ(*got.payload, got.key * 1000 + got.seq);
        reference.pop();
      }
    }
    while (!reference.empty()) {
      const Item got = heap.pop_min();
      ASSERT_EQ(got.key, reference.top().first) << "seed " << seed;
      ASSERT_EQ(got.seq, reference.top().second) << "seed " << seed;
      reference.pop();
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(MoveHeap, MinPeeksWithoutPopping) {
  MoveHeap<int, std::greater<>> heap;
  for (int v : {9, 2, 7}) heap.push(std::move(v));
  EXPECT_EQ(heap.min(), 2);
  EXPECT_EQ(heap.size(), 3u);  // peek must not consume
  EXPECT_EQ(heap.pop_min(), 2);
  EXPECT_EQ(heap.min(), 7);
}

}  // namespace
}  // namespace scc::sim
