// Private-memory cache model (one per simulated core).
//
// Models the P54C core's cache hierarchy as a single level with the 256 KB
// L2's capacity: 32-byte lines, LRU, write-back, non-write-allocate (the
// documented SCC L2 policies). The paper's Section IV-D argument -- "only
// the first access to a private memory address goes off-chip; later
// accesses hit the cache, masking DRAM latency" -- is exactly what this
// model reproduces, and it is why the MPB-direct Allreduce gains little
// while the arbiter-bug workaround is active.
//
// The model is deliberately FULLY ASSOCIATIVE: user buffers live at host
// heap addresses, and a set-indexed model would make simulated timing
// depend on the allocator's placement (breaking run-to-run determinism,
// a design requirement of this simulator). The cost is that conflict
// misses are not modeled -- only capacity and cold misses -- which is the
// right trade-off for reproducing the paper's cached-vs-MPB comparison.
//
// The model is a timing filter only: it classifies each touched line as
// hit or miss. Data lives in ordinary host memory.
//
// Storage is flat and grows on demand. Resident lines are nodes in one
// vector, LRU-linked by index. They are found through pages of kPageLines
// consecutive lines: a page holds one node slot per line, and an
// open-addressing (linear probing, backward-shift deletion) table keyed by
// page number finds a page. A touch looks each page it crosses up once and
// then reaches every line through its slot; each node records its page and
// slot, so an eviction clears the slot without a lookup. Pages come from
// one pooled vector: a page whose last line leaves goes on a free list and
// out of the table. The pool grows with the node vector, so the number of
// allocations depends on how many lines are resident, not on where the
// host allocator put the buffers. A miss on a full cache reuses the evicted
// line's node, so a warm cache allocates nothing, and a core that touches
// few lines never pays for the capacity it does not use.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "mem/cost_model.hpp"

namespace scc::mem {

struct CacheAccessResult {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;           // lines fetched from DRAM
  std::uint64_t writebacks = 0;       // dirty lines evicted to DRAM
  std::uint64_t uncached_writes = 0;  // write misses sent straight to DRAM
};

/// Cumulative per-core cache counters (the lifetime sum of every
/// CacheAccessResult the model handed out). Volume-type: a core's access
/// sequence is its own program order, so these are schedule-invariant and
/// the conformance harness pins them across perturbation seeds.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t uncached_writes = 0;

  CacheStats& operator+=(const CacheAccessResult& r) {
    hits += r.hits;
    misses += r.misses;
    writebacks += r.writebacks;
    uncached_writes += r.uncached_writes;
    return *this;
  }
};

class CacheModel {
 public:
  /// Lines per page of the lookup structure: 4 KiB of host memory. Pages
  /// only find lines; they never change a classification.
  static constexpr std::size_t kPageLines = 128;

  explicit CacheModel(const HwCostModel& hw);

  /// Touches [addr, addr+bytes) for reading; classifies each line.
  CacheAccessResult touch_read(std::uintptr_t addr, std::size_t bytes);

  /// Touches [addr, addr+bytes) for writing. Write hits dirty the line;
  /// write misses do NOT allocate (non-write-allocate) and are counted as
  /// uncached_writes.
  CacheAccessResult touch_write(std::uintptr_t addr, std::size_t bytes);

  /// Drops every line (cold-start experiments). Cumulative stats() survive
  /// the flush: they count accesses, not contents.
  void flush_all();

  [[nodiscard]] std::uint64_t resident_lines() const { return nodes_.size(); }
  [[nodiscard]] std::uint64_t capacity_lines() const { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    std::uint32_t prev;  // toward the most recently used end
    std::uint32_t next;  // toward the least recently used end
    std::uint32_t page;  // index into pages_
    std::uint16_t slot;  // the line's slot in its page
    bool dirty;
  };

  struct Page {
    /// First line / kPageLines; on the free list, the next free page.
    std::uintptr_t number;
    std::uint32_t lines;  // resident lines; 0 on the free list
    std::array<std::uint32_t, kPageLines> node;  // per line, or kNil
  };

  [[nodiscard]] std::size_t home(std::uintptr_t number) const;
  /// Table position holding page `number`, or the empty position where the
  /// probe for it stops.
  [[nodiscard]] std::size_t probe(std::uintptr_t number) const;
  /// The page `number`, or kNil when none of its lines is resident.
  [[nodiscard]] std::uint32_t find_page(std::uintptr_t number) const;
  /// A new empty page `number`, entered in the table.
  std::uint32_t add_page(std::uintptr_t number);
  void make_mru(std::uint32_t node);
  /// Inserts line `slot` of `page` as most-recently-used, evicting the LRU
  /// line when full. Returns true when the eviction wrote back a dirty line.
  bool insert(std::uint32_t page, std::size_t slot);
  void unlink(std::uint32_t node);
  void push_front(std::uint32_t node);
  void erase_slot(std::size_t pos);
  /// Room for `pages` pages in the pool, with the table rebuilt at twice
  /// that size when the pool grows.
  void reserve_pages(std::size_t pages);

  std::uint64_t capacity_;
  std::vector<Node> nodes_;
  std::vector<Page> pages_;
  std::uint32_t free_page_ = kNil;    // head of the free list
  std::vector<std::uint32_t> table_;  // page index per position, or kNil
  unsigned shift_ = 64;               // 64 - log2(table_.size())
  std::uint32_t mru_ = kNil;
  std::uint32_t lru_ = kNil;
  CacheStats stats_;
};

}  // namespace scc::mem
