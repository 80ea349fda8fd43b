#include "mem/cache.hpp"

#include <algorithm>
#include <bit>

namespace scc::mem {

namespace {
constexpr std::uintptr_t line_of(std::uintptr_t addr) {
  return addr / kCacheLineBytes;
}

// First table size; insert() doubles the table whenever it would become
// more than half full.
constexpr std::size_t kInitialTableSize = 16;
}  // namespace

CacheModel::CacheModel(const HwCostModel& hw)
    : capacity_(hw.cache_bytes / kCacheLineBytes) {
  SCC_EXPECTS(capacity_ > 0);
  SCC_EXPECTS(capacity_ < kNil);
}

std::size_t CacheModel::home(std::uintptr_t line) const {
  // Fibonacci hashing: the top bits of line * 2^64/phi spread runs of
  // consecutive lines (the common access pattern) across the table.
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(line) * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::size_t CacheModel::probe(std::uintptr_t line) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t pos = home(line);
  while (table_[pos] != kNil && nodes_[table_[pos]].line != line)
    pos = (pos + 1) & mask;
  return pos;
}

std::uint32_t CacheModel::find(std::uintptr_t line) const {
  return table_.empty() ? kNil : table_[probe(line)];
}

void CacheModel::make_mru(std::uint32_t node) {
  if (node == mru_) return;
  unlink(node);
  push_front(node);
}

void CacheModel::unlink(std::uint32_t node) {
  const Node& n = nodes_[node];
  (n.prev == kNil ? mru_ : nodes_[n.prev].next) = n.next;
  (n.next == kNil ? lru_ : nodes_[n.next].prev) = n.prev;
}

void CacheModel::push_front(std::uint32_t node) {
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
    const std::size_t start = home(nodes_[table_[next]].line);
    if (((next - start) & mask) >= ((next - pos) & mask)) {
      table_[pos] = table_[next];
      pos = next;
    }
  }
  table_[pos] = kNil;
}

void CacheModel::grow_table() {
  const std::size_t size =
      table_.empty() ? kInitialTableSize : table_.size() * 2;
  table_.assign(size, kNil);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (std::uint32_t i = 0; i < nodes_.size(); ++i)
    table_[probe(nodes_[i].line)] = i;
}

bool CacheModel::insert(std::uintptr_t line) {
  bool writeback = false;
  std::uint32_t node;
  if (nodes_.size() < capacity_) {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{line, kNil, kNil, false});
    if (2 * nodes_.size() > table_.size()) grow_table();
  } else {
    // Full: the LRU line's node becomes the new line's.
    node = lru_;
    writeback = nodes_[node].dirty;
    erase_slot(probe(nodes_[node].line));
    unlink(node);
    nodes_[node] = Node{line, kNil, kNil, false};
  }
  table_[probe(line)] = node;
  push_front(node);
  return writeback;
}

CacheAccessResult CacheModel::touch_read(std::uintptr_t addr,
                                         std::size_t bytes) {
  CacheAccessResult result;
  if (bytes == 0) return result;
  const std::uintptr_t first = line_of(addr);
  const std::uintptr_t last = line_of(addr + bytes - 1);
  for (std::uintptr_t line = first; line <= last; ++line) {
    if (const std::uint32_t node = find(line); node != kNil) {
      make_mru(node);
      ++result.hits;
      continue;
    }
    ++result.misses;
    if (insert(line)) ++result.writebacks;
  }
  stats_ += result;
  return result;
}

CacheAccessResult CacheModel::touch_write(std::uintptr_t addr,
                                          std::size_t bytes) {
  CacheAccessResult result;
  if (bytes == 0) return result;
  const std::uintptr_t first = line_of(addr);
  const std::uintptr_t last = line_of(addr + bytes - 1);
  for (std::uintptr_t line = first; line <= last; ++line) {
    if (const std::uint32_t node = find(line); node != kNil) {
      make_mru(node);
      nodes_[node].dirty = true;
      ++result.hits;
      continue;
    }
    // Non-write-allocate: the write goes to memory without filling a line.
    ++result.uncached_writes;
  }
  stats_ += result;
  return result;
}

void CacheModel::flush_all() {
  nodes_.clear();
  std::fill(table_.begin(), table_.end(), kNil);
  mru_ = kNil;
  lru_ = kNil;
}

}  // namespace scc::mem
