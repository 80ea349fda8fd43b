// Per-thread free-list arena for coroutine frames.
//
// Every simulated operation with a virtual-time cost is a Task<T> coroutine,
// so a single collective run creates and destroys the same handful of frame
// sizes hundreds of thousands of times. The global allocator handles that
// fine, but each round trip still pays malloc bookkeeping on the drain loop's
// critical path. This arena keeps freed frames in per-size-class intrusive
// free lists (64-byte granularity, capped per class; the link pointer lives
// inside the dead block, so the arena itself never allocates) and hands them
// back on the next allocation of the same class -- the steady state of a
// simulation allocates no frame memory at all.
//
// Thread model: the lists are thread_local, so concurrent simulations on
// exec worker threads never contend or race. A frame may legally be
// allocated on one thread and freed on another: the block simply migrates
// to the freeing thread's list, which is the only list that thread ever
// touches. Each list frees its remaining blocks at thread exit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace scc::sim {

/// Counters for the calling thread's arena (tests assert steady-state
/// reuse; selfperf reports them).
struct FrameArenaStats {
  std::uint64_t allocs = 0;    // frame allocations served (any path)
  std::uint64_t reuses = 0;    // ... of which came from a free list
  std::uint64_t oversize = 0;  // ... of which bypassed the arena entirely
};

namespace frame_arena_detail {

inline constexpr std::size_t kGranularity = 64;
inline constexpr std::size_t kMaxBytes = 4096;
inline constexpr std::size_t kClasses = kMaxBytes / kGranularity;
/// Cap per class: bounds idle memory at kMaxPerClass * 4 KB * kClasses
/// worst case per thread while still covering the frame population of a
/// 48-core machine mid-collective.
inline constexpr std::size_t kMaxPerClass = 128;

/// Link node overlaid on the first word of a freed block (every class is at
/// least kGranularity bytes, so the pointer always fits).
struct FreeBlock {
  FreeBlock* next;
};

struct FreeLists {
  FreeBlock* heads[kClasses] = {};
  std::size_t counts[kClasses] = {};
  FrameArenaStats stats;
  ~FreeLists() {
    for (FreeBlock* head : heads) {
      while (head != nullptr) {
        FreeBlock* next = head->next;
        ::operator delete(static_cast<void*>(head));
        head = next;
      }
    }
  }
};

inline thread_local FreeLists tl_arena;

[[nodiscard]] constexpr std::size_t class_of(std::size_t bytes) {
  return (bytes - 1) / kGranularity;
}

[[nodiscard]] constexpr std::size_t class_bytes(std::size_t cls) {
  return (cls + 1) * kGranularity;
}

}  // namespace frame_arena_detail

[[nodiscard]] inline void* frame_alloc(std::size_t bytes) {
  using namespace frame_arena_detail;
  FreeLists& arena = tl_arena;
  ++arena.stats.allocs;
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxBytes) {
    ++arena.stats.oversize;
    return ::operator new(bytes);
  }
  const std::size_t cls = class_of(bytes);
  if (FreeBlock* head = arena.heads[cls]; head != nullptr) {
    arena.heads[cls] = head->next;
    --arena.counts[cls];
    ++arena.stats.reuses;
    return static_cast<void*>(head);
  }
  // Allocate the full class size so the block is reusable by any frame of
  // the same class, not just this exact byte count.
  return ::operator new(class_bytes(cls));
}

inline void frame_free(void* block, std::size_t bytes) noexcept {
  using namespace frame_arena_detail;
  if (block == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxBytes) {
    ::operator delete(block);
    return;
  }
  FreeLists& arena = tl_arena;
  const std::size_t cls = class_of(bytes);
  if (arena.counts[cls] >= kMaxPerClass) {
    ::operator delete(block);
    return;
  }
  auto* node = static_cast<FreeBlock*>(block);
  node->next = arena.heads[cls];
  arena.heads[cls] = node;
  ++arena.counts[cls];
}

[[nodiscard]] inline const FrameArenaStats& frame_arena_stats() {
  return frame_arena_detail::tl_arena.stats;
}

}  // namespace scc::sim
