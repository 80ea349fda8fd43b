#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "common/rng.hpp"

namespace scc::mem {
namespace {

HwCostModel tiny_cache() {
  HwCostModel hw;
  hw.cache_bytes = 8 * kCacheLineBytes;  // capacity: 8 lines
  return hw;
}

TEST(Cache, ColdReadMisses) {
  CacheModel cache{HwCostModel{}};
  const auto r = cache.touch_read(0x1000, 64);
  EXPECT_EQ(r.misses, 2u);
  EXPECT_EQ(r.hits, 0u);
}

TEST(Cache, RepeatedReadHits) {
  CacheModel cache{HwCostModel{}};
  cache.touch_read(0x1000, 64);
  const auto r = cache.touch_read(0x1000, 64);
  EXPECT_EQ(r.hits, 2u);
  EXPECT_EQ(r.misses, 0u);
}

TEST(Cache, PartialLineCountsWholeLine) {
  CacheModel cache{HwCostModel{}};
  const auto r = cache.touch_read(0x1001, 1);  // 1 byte still fills a line
  EXPECT_EQ(r.misses, 1u);
  const auto r2 = cache.touch_read(0x1000, 32);
  EXPECT_EQ(r2.hits, 1u);
}

TEST(Cache, StraddlingAccessTouchesBothLines) {
  CacheModel cache{HwCostModel{}};
  const auto r = cache.touch_read(0x101E, 4);  // crosses a 32 B boundary
  EXPECT_EQ(r.misses, 2u);
}

TEST(Cache, WriteMissDoesNotAllocate) {
  CacheModel cache{HwCostModel{}};
  const auto w = cache.touch_write(0x2000, 32);
  EXPECT_EQ(w.uncached_writes, 1u);
  EXPECT_EQ(w.hits, 0u);
  // Non-write-allocate: a following read still misses.
  const auto r = cache.touch_read(0x2000, 32);
  EXPECT_EQ(r.misses, 1u);
}

TEST(Cache, DirtyEvictionCountsWriteback) {
  CacheModel cache = CacheModel{tiny_cache()};
  cache.touch_read(0x0, 32);                    // fill line 0
  EXPECT_EQ(cache.touch_write(0x0, 32).hits, 1u);  // dirty it
  // Fill 8 more lines; line 0 is the LRU victim.
  const auto r = cache.touch_read(0x100, 8 * 32);
  EXPECT_EQ(r.misses, 8u);
  EXPECT_EQ(r.writebacks, 1u);
  // Line 0 is gone.
  EXPECT_EQ(cache.touch_read(0x0, 32).misses, 1u);
}

TEST(Cache, LruKeepsRecentlyTouchedLines) {
  CacheModel cache = CacheModel{tiny_cache()};  // 8 lines
  for (std::uintptr_t a = 0; a < 8 * 32; a += 32) cache.touch_read(a, 32);
  // Refresh line 0, then insert a ninth line: line at 32 is evicted.
  cache.touch_read(0, 32);
  cache.touch_read(0x1000, 32);
  EXPECT_EQ(cache.touch_read(0, 32).hits, 1u);
  EXPECT_EQ(cache.touch_read(32, 32).misses, 1u);
}

TEST(Cache, FlushAllDropsEverything) {
  CacheModel cache{HwCostModel{}};
  cache.touch_read(0x1000, 320);
  EXPECT_GT(cache.resident_lines(), 0u);
  cache.flush_all();
  EXPECT_EQ(cache.resident_lines(), 0u);
  EXPECT_EQ(cache.touch_read(0x1000, 32).misses, 1u);
}

TEST(Cache, ZeroByteTouchIsNoop) {
  CacheModel cache{HwCostModel{}};
  const auto r = cache.touch_read(0x1000, 0);
  EXPECT_EQ(r.hits + r.misses, 0u);
}

TEST(Cache, CapacityBoundRespected) {
  CacheModel cache{HwCostModel{}};  // 256 KB = 8192 lines
  for (std::uintptr_t line = 0; line < 10000; ++line)
    cache.touch_read(line * kCacheLineBytes, 1);
  EXPECT_EQ(cache.resident_lines(), cache.capacity_lines());
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  CacheModel cache{HwCostModel{}};
  const std::size_t big = 512 * 1024;  // 2x the cache
  cache.touch_read(0, big);
  // Re-reading from the start misses again (LRU evicted the head).
  const auto r = cache.touch_read(0, 32);
  EXPECT_EQ(r.misses, 1u);
}

TEST(Cache, DeterministicForShiftedAddresses) {
  // The timing-relevant classification depends only on the ACCESS PATTERN,
  // not on where the allocator placed the buffer (full associativity) --
  // this is what makes the whole simulation reproducible run to run.
  const auto classify = [](std::uintptr_t base) {
    CacheModel cache = CacheModel{tiny_cache()};
    std::uint64_t misses = 0;
    for (int rep = 0; rep < 3; ++rep)
      for (std::uintptr_t off = 0; off < 6 * 32; off += 32)
        misses += cache.touch_read(base + off, 32).misses;
    return misses;
  };
  EXPECT_EQ(classify(0x10000), classify(0x73420));
}

// The list + map LRU that CacheModel's flat storage replaced, kept as the
// reference the differential test below holds it to.
class ReferenceLru {
 public:
  explicit ReferenceLru(const HwCostModel& hw)
      : capacity_(hw.cache_bytes / kCacheLineBytes) {}

  CacheAccessResult touch_read(std::uintptr_t addr, std::size_t bytes) {
    CacheAccessResult result;
    if (bytes == 0) return result;
    for (std::uintptr_t line = addr / kCacheLineBytes;
         line <= (addr + bytes - 1) / kCacheLineBytes; ++line) {
      const auto it = map_.find(line);
      if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        ++result.hits;
        continue;
      }
      ++result.misses;
      lru_.push_front(line);
      map_.emplace(line, Entry{lru_.begin(), false});
      if (map_.size() > capacity_) {
        const auto victim = map_.find(lru_.back());
        if (victim->second.dirty) ++result.writebacks;
        map_.erase(victim);
        lru_.pop_back();
      }
    }
    stats_ += result;
    return result;
  }

  CacheAccessResult touch_write(std::uintptr_t addr, std::size_t bytes) {
    CacheAccessResult result;
    if (bytes == 0) return result;
    for (std::uintptr_t line = addr / kCacheLineBytes;
         line <= (addr + bytes - 1) / kCacheLineBytes; ++line) {
      const auto it = map_.find(line);
      if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        it->second.dirty = true;
        ++result.hits;
        continue;
      }
      ++result.uncached_writes;
    }
    stats_ += result;
    return result;
  }

  void flush_all() {
    lru_.clear();
    map_.clear();
  }

  [[nodiscard]] std::uint64_t resident_lines() const { return map_.size(); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::list<std::uintptr_t>::iterator lru_pos;
    bool dirty;
  };
  std::uint64_t capacity_;
  std::list<std::uintptr_t> lru_;  // front = most recently used
  std::unordered_map<std::uintptr_t, Entry> map_;
  CacheStats stats_;
};

void expect_same(const CacheAccessResult& got, const CacheAccessResult& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.writebacks, want.writebacks);
  EXPECT_EQ(got.uncached_writes, want.uncached_writes);
}

// Seeded random traces over a working set three times the capacity: reads
// and writes, sub-line, line-straddling and multi-line extents, and a
// flush_all half-way and about every 4 x capacity accesses, so the cache
// fills, evicts and refills. Every call must classify exactly as the reference.
void run_differential(const HwCostModel& hw, std::uint64_t seed,
                      int accesses) {
  CacheModel cache{hw};
  ReferenceLru reference{hw};
  Xoshiro256 rng(seed);
  const std::uint64_t lines = hw.cache_bytes / kCacheLineBytes;
  const std::uint64_t span_bytes = 3 * lines * kCacheLineBytes;
  int flushes = 0;
  bool filled = false;
  for (int i = 0; i < accesses; ++i) {
    if (rng.below(4 * lines) == 0 || i == accesses / 2) {
      cache.flush_all();
      reference.flush_all();
      ++flushes;
    } else {
      const bool read = rng.below(5) < 3;
      // Mostly short extents (partial or straddling one boundary), some
      // long runs of whole lines.
      const std::size_t bytes =
          rng.below(8) == 0
              ? static_cast<std::size_t>(rng.below(16 * kCacheLineBytes + 1))
              : static_cast<std::size_t>(1 + rng.below(kCacheLineBytes));
      const std::uintptr_t addr = 0x40000 + rng.below(span_bytes);
      if (read) {
        expect_same(cache.touch_read(addr, bytes),
                    reference.touch_read(addr, bytes));
      } else {
        expect_same(cache.touch_write(addr, bytes),
                    reference.touch_write(addr, bytes));
      }
    }
    ASSERT_EQ(cache.resident_lines(), reference.resident_lines()) << i;
    ASSERT_EQ(cache.stats().hits, reference.stats().hits) << i;
    ASSERT_EQ(cache.stats().misses, reference.stats().misses) << i;
    ASSERT_EQ(cache.stats().writebacks, reference.stats().writebacks) << i;
    ASSERT_EQ(cache.stats().uncached_writes,
              reference.stats().uncached_writes)
        << i;
    filled = filled || cache.resident_lines() == lines;
  }
  // The trace exercised what it claims to: full-cache eviction (of dirty
  // lines too) and flushes mid-trace.
  EXPECT_TRUE(filled);
  EXPECT_GT(cache.stats().writebacks, 0u);
  EXPECT_GT(flushes, 0);
}

TEST(Cache, MatchesReferenceLruOnTinyCache) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    run_differential(tiny_cache(), seed, 4000);
}

TEST(Cache, MatchesReferenceLruOnDefaultCache) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    run_differential(HwCostModel{}, seed, 80000);
}

}  // namespace
}  // namespace scc::mem
