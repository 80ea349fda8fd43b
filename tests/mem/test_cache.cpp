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

/// The model and the reference side by side: every touch must classify
/// the same, and the cumulative state must agree after it.
class Differential {
 public:
  explicit Differential(const HwCostModel& hw) : cache_(hw), reference_(hw) {}

  ::testing::AssertionResult touch(bool read, std::uintptr_t addr,
                                   std::size_t bytes) {
    const CacheAccessResult got = read ? cache_.touch_read(addr, bytes)
                                       : cache_.touch_write(addr, bytes);
    const CacheAccessResult want = read ? reference_.touch_read(addr, bytes)
                                        : reference_.touch_write(addr, bytes);
    if (got.hits != want.hits || got.misses != want.misses ||
        got.writebacks != want.writebacks ||
        got.uncached_writes != want.uncached_writes) {
      return ::testing::AssertionFailure()
             << (read ? "read " : "write ") << bytes << " B at " << addr
             << " classified differently";
    }
    return agree();
  }

  ::testing::AssertionResult flush_all() {
    cache_.flush_all();
    reference_.flush_all();
    return agree();
  }

  [[nodiscard]] const CacheModel& cache() const { return cache_; }

 private:
  ::testing::AssertionResult agree() const {
    const CacheStats& a = cache_.stats();
    const CacheStats& b = reference_.stats();
    if (cache_.resident_lines() != reference_.resident_lines() ||
        a.hits != b.hits || a.misses != b.misses ||
        a.writebacks != b.writebacks ||
        a.uncached_writes != b.uncached_writes) {
      return ::testing::AssertionFailure() << "cumulative state differs";
    }
    return ::testing::AssertionSuccess();
  }

  CacheModel cache_;
  ReferenceLru reference_;
};

constexpr std::size_t kPageBytes = CacheModel::kPageLines * kCacheLineBytes;

// Seeded random traces over a working set three times the capacity: reads
// and writes, sub-line, line-straddling and multi-line extents (up to
// `long_bytes`), and a flush_all half-way and about every 4 x capacity
// accesses, so the cache fills, evicts and refills. Every call must classify
// exactly as the reference.
void run_differential(const HwCostModel& hw, std::uint64_t seed, int accesses,
                      std::size_t long_bytes = 16 * kCacheLineBytes) {
  Differential models{hw};
  Xoshiro256 rng(seed);
  const std::uint64_t lines = hw.cache_bytes / kCacheLineBytes;
  const std::uint64_t span_bytes = 3 * lines * kCacheLineBytes;
  int flushes = 0;
  bool filled = false;
  for (int i = 0; i < accesses; ++i) {
    if (rng.below(4 * lines) == 0 || i == accesses / 2) {
      ASSERT_TRUE(models.flush_all()) << "access " << i;
      ++flushes;
    } else {
      const bool read = rng.below(5) < 3;
      // Mostly short extents (partial or straddling one boundary), some
      // long runs of whole lines.
      const std::size_t bytes =
          rng.below(8) == 0
              ? static_cast<std::size_t>(rng.below(long_bytes + 1))
              : static_cast<std::size_t>(1 + rng.below(kCacheLineBytes));
      const std::uintptr_t addr = 0x40000 + rng.below(span_bytes);
      ASSERT_TRUE(models.touch(read, addr, bytes)) << "access " << i;
    }
    filled = filled || models.cache().resident_lines() == lines;
  }
  // The trace exercised what it claims to: full-cache eviction (of dirty
  // lines too) and flushes mid-trace.
  EXPECT_TRUE(filled);
  EXPECT_GT(models.cache().stats().writebacks, 0u);
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

TEST(Cache, MatchesReferenceLruWithExtentsSpanningPages) {
  // Long extents of up to three pages, on a cache of a few pages and on the
  // default one: a touch looks up several pages, and fills and evicts lines
  // of more than one page within itself.
  HwCostModel few_pages;
  few_pages.cache_bytes = 4 * kPageBytes;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_differential(few_pages, seed, 20000, 3 * kPageBytes);
    run_differential(HwCostModel{}, seed, 20000, 3 * kPageBytes);
  }
}

TEST(Cache, MatchesReferenceLruOnSparsePages) {
  // One line per page over four times as many pages as the cache has
  // lines: nearly every miss creates a page and every eviction frees one,
  // so pages are recycled through the free list every few accesses.
  for (const HwCostModel& hw : {tiny_cache(), HwCostModel{}}) {
    Differential models{hw};
    Xoshiro256 rng(7);
    const std::uint64_t pages = 4 * hw.cache_bytes / kCacheLineBytes;
    for (int i = 0; i < 60000; ++i) {
      const std::uintptr_t addr =
          0x40000000 + rng.below(pages) * kPageBytes + 3 * kCacheLineBytes;
      ASSERT_TRUE(models.touch(rng.below(5) < 3, addr, kCacheLineBytes))
          << "access " << i;
    }
    EXPECT_EQ(models.cache().resident_lines(), hw.cache_bytes / kCacheLineBytes);
    EXPECT_GT(models.cache().stats().hits, 0u);
    EXPECT_GT(models.cache().stats().writebacks, 0u);
  }
}

TEST(Cache, FillEvictingTheLastLineOfItsOwnPage) {
  // The 8-line cache holds line 0 of page A (dirty, least recently used)
  // and seven lines of page B. Reading lines 1..3 of page A: the first fill
  // evicts line 0, the last resident line of the very page being filled,
  // within the same touch, and page A must survive it.
  const std::uintptr_t page_a = 0x100000;
  const std::uintptr_t page_b = page_a + 4 * kPageBytes;
  Differential models{tiny_cache()};
  ASSERT_TRUE(models.touch(true, page_a, kCacheLineBytes));
  ASSERT_TRUE(models.touch(false, page_a, kCacheLineBytes));
  ASSERT_TRUE(models.touch(true, page_b, 7 * kCacheLineBytes));
  ASSERT_TRUE(models.touch(true, page_a + kCacheLineBytes,
                           3 * kCacheLineBytes));
  const CacheStats& stats = models.cache().stats();
  EXPECT_EQ(stats.misses, 1u + 7u + 3u);
  EXPECT_EQ(stats.writebacks, 1u);  // line 0 of page A, dirty
  // Lines 1..3 of page A hit, line 0 misses, and the page takes later
  // fills.
  ASSERT_TRUE(models.touch(true, page_a + kCacheLineBytes,
                           3 * kCacheLineBytes));
  EXPECT_EQ(stats.hits, 1u + 3u);
  ASSERT_TRUE(models.touch(true, page_a, kCacheLineBytes));
  EXPECT_EQ(stats.misses, 1u + 7u + 3u + 1u);
  ASSERT_TRUE(models.touch(true, page_a, 8 * kCacheLineBytes));
  EXPECT_EQ(models.cache().resident_lines(), 8u);
}

}  // namespace
}  // namespace scc::mem
