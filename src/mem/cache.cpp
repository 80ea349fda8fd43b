#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

namespace scc::mem {

namespace {
constexpr std::uintptr_t line_of(std::uintptr_t addr) {
  return addr / kCacheLineBytes;
}

/// Calls fn(page number, first slot, end slot) for every page that the
/// lines of [addr, addr + bytes) cross, in address order.
template <typename Fn>
void for_each_page(std::uintptr_t addr, std::size_t bytes, Fn&& fn) {
  constexpr std::uintptr_t kLines = CacheModel::kPageLines;
  const std::uintptr_t last = line_of(addr + bytes - 1);
  for (std::uintptr_t line = line_of(addr); line <= last;) {
    const std::uintptr_t number = line / kLines;
    const std::uintptr_t end = std::min(last + 1, (number + 1) * kLines);
    fn(number, line % kLines, end - number * kLines);
    line = end;
  }
}

// The page pool keeps room for one page per kNodesPerPage node slots, and
// for at least kMinPages. Dense access patterns (runs of whole pages, plus
// a partly resident page at each end of a buffer) stay inside that, so the
// pool and the table grow when the node pool does, at resident-line counts
// that do not depend on where the host allocator put the buffers. Sparser
// patterns double the pool when it is full.
constexpr std::size_t kNodesPerPage = 64;
constexpr std::size_t kMinPages = 16;
}  // namespace

CacheModel::CacheModel(const HwCostModel& hw)
    : capacity_(hw.cache_bytes / kCacheLineBytes) {
  SCC_EXPECTS(capacity_ > 0);
  SCC_EXPECTS(capacity_ < kNil);
}

std::size_t CacheModel::home(std::uintptr_t number) const {
  // Fibonacci hashing: the top bits of number * 2^64/phi spread runs of
  // consecutive pages (the common access pattern) across the table.
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(number) * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::size_t CacheModel::probe(std::uintptr_t number) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t pos = home(number);
  while (table_[pos] != kNil && pages_[table_[pos]].number != number)
    pos = (pos + 1) & mask;
  return pos;
}

std::uint32_t CacheModel::find_page(std::uintptr_t number) const {
  return table_.empty() ? kNil : table_[probe(number)];
}

std::uint32_t CacheModel::add_page(std::uintptr_t number) {
  std::uint32_t page = free_page_;
  if (page != kNil) {
    // A free page's slots are all empty already.
    free_page_ = static_cast<std::uint32_t>(pages_[page].number);
  } else {
    if (pages_.size() == pages_.capacity()) {
      reserve_pages(std::max(kMinPages, 2 * pages_.capacity()));
    }
    page = static_cast<std::uint32_t>(pages_.size());
    pages_.emplace_back().node.fill(kNil);
  }
  pages_[page].number = number;
  table_[probe(number)] = page;
  return page;
}

inline void CacheModel::make_mru(std::uint32_t node) {
  if (node == mru_) return;
  unlink(node);
  push_front(node);
}

inline void CacheModel::unlink(std::uint32_t node) {
  const Node& n = nodes_[node];
  (n.prev == kNil ? mru_ : nodes_[n.prev].next) = n.next;
  (n.next == kNil ? lru_ : nodes_[n.next].prev) = n.prev;
}

inline void CacheModel::push_front(std::uint32_t node) {
  Node& n = nodes_[node];
  n.prev = kNil;
  n.next = mru_;
  (mru_ == kNil ? lru_ : nodes_[mru_].prev) = node;
  mru_ = node;
}

void CacheModel::erase_slot(std::size_t pos) {
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home position, so lookups
  // never need tombstones.
  const std::size_t mask = table_.size() - 1;
  std::size_t next = pos;
  for (;;) {
    next = (next + 1) & mask;
    if (table_[next] == kNil) break;
    // The entry at `next` may fill the hole when its home is not inside
    // the cyclic interval (pos, next].
    const std::size_t start = home(pages_[table_[next]].number);
    if (((next - start) & mask) >= ((next - pos) & mask)) {
      table_[pos] = table_[next];
      pos = next;
    }
  }
  table_[pos] = kNil;
}

void CacheModel::reserve_pages(std::size_t pages) {
  if (pages <= pages_.capacity()) return;
  pages_.reserve(pages);
  // Twice the pool: the table stays at most half full.
  const std::size_t size = std::bit_ceil(2 * pages_.capacity());
  table_.assign(size, kNil);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  // Live pages hold at least one line; free and brand-new ones hold none.
  for (std::uint32_t i = 0; i < pages_.size(); ++i) {
    if (pages_[i].lines > 0) table_[probe(pages_[i].number)] = i;
  }
}

bool CacheModel::insert(std::uint32_t page, std::size_t slot) {
  // Counted before the eviction, so evicting the page's last other line
  // does not free the page being filled.
  ++pages_[page].lines;
  bool writeback = false;
  std::uint32_t node;
  if (nodes_.size() < capacity_) {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    reserve_pages(std::max(kMinPages, nodes_.capacity() / kNodesPerPage));
  } else {
    // Full: the LRU line's node becomes the new line's.
    node = lru_;
    const Node& victim = nodes_[node];
    writeback = victim.dirty;
    unlink(node);
    Page& old = pages_[victim.page];
    old.node[victim.slot] = kNil;
    if (--old.lines == 0) {
      erase_slot(probe(old.number));
      old.number = free_page_;
      free_page_ = victim.page;
    }
  }
  nodes_[node] = Node{kNil, kNil, page, static_cast<std::uint16_t>(slot), false};
  pages_[page].node[slot] = node;
  push_front(node);
  return writeback;
}

CacheAccessResult CacheModel::touch_read(std::uintptr_t addr,
                                         std::size_t bytes) {
  if (bytes == 0) return {};
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  for_each_page(addr, bytes, [&](std::uintptr_t number, std::size_t slot,
                                 std::size_t end) {
    std::uint32_t page = find_page(number);
    for (; slot < end; ++slot) {
      if (page == kNil) {
        page = add_page(number);
      } else if (const std::uint32_t node = pages_[page].node[slot];
                 node != kNil) {
        make_mru(node);
        ++hits;
        continue;
      }
      ++misses;
      if (insert(page, slot)) ++writebacks;
    }
  });
  const CacheAccessResult result{hits, misses, writebacks, 0};
  stats_ += result;
  return result;
}

CacheAccessResult CacheModel::touch_write(std::uintptr_t addr,
                                          std::size_t bytes) {
  if (bytes == 0) return {};
  std::uint64_t hits = 0;
  std::uint64_t uncached = 0;
  for_each_page(addr, bytes, [&](std::uintptr_t number, std::size_t slot,
                                 std::size_t end) {
    const std::uint32_t page = find_page(number);
    if (page == kNil) {
      // Non-write-allocate: writes to lines that are not resident go to
      // memory without filling a line.
      uncached += end - slot;
      return;
    }
    for (; slot < end; ++slot) {
      const std::uint32_t node = pages_[page].node[slot];
      if (node == kNil) {
        ++uncached;
        continue;
      }
      make_mru(node);
      nodes_[node].dirty = true;
      ++hits;
    }
  });
  const CacheAccessResult result{hits, 0, 0, uncached};
  stats_ += result;
  return result;
}

void CacheModel::flush_all() {
  nodes_.clear();
  pages_.clear();
  free_page_ = kNil;
  std::fill(table_.begin(), table_.end(), kNil);
  mru_ = kNil;
  lru_ = kNil;
}

}  // namespace scc::mem
