// Move-based binary min-heap for the event loop.
//
// std::priority_queue only exposes a const top(), which forces the engine
// to COPY every event out of the queue before popping it -- including the
// event's callable. This heap stores elements contiguously in a vector and
// implements the classic hole-percolation sift: push and pop_min move
// elements, never copy them, and pop_min moves the minimum out to the
// caller. Pop order is exactly ascending in the comparator's total order;
// since engine events carry a unique sequence number the order is total,
// so swapping std::priority_queue for this heap cannot change which event
// fires next (guarded by the engine determinism tests).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace scc::sim {

/// Min-heap: pop_min() yields the least element under `Greater` (the same
/// "greater" functor std::priority_queue's min-heap configuration uses).
template <typename T, typename Greater>
class MoveHeap {
 public:
  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  /// The minimum element, without removing it. Precondition: !empty().
  [[nodiscard]] const T& min() const { return v_.front(); }
  void reserve(std::size_t n) { v_.reserve(n); }
  void clear() { v_.clear(); }

  void push(T&& item) {
    std::size_t hole = v_.size();
    v_.emplace_back();  // the hole; filled below after percolation
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!greater_(v_[parent], item)) break;
      v_[hole] = std::move(v_[parent]);
      hole = parent;
    }
    v_[hole] = std::move(item);
  }

  /// Removes and returns the minimum. Precondition: !empty().
  T pop_min() {
    T min = std::move(v_.front());
    T last = std::move(v_.back());
    v_.pop_back();
    if (!v_.empty()) {
      // Percolate the root hole down toward the smaller child until `last`
      // fits, moving each child up exactly once (half the moves of a
      // swap-based sift).
      std::size_t hole = 0;
      const std::size_t n = v_.size();
      for (;;) {
        std::size_t child = 2 * hole + 1;
        if (child >= n) break;
        if (child + 1 < n && greater_(v_[child], v_[child + 1])) ++child;
        if (!greater_(last, v_[child])) break;
        v_[hole] = std::move(v_[child]);
        hole = child;
      }
      v_[hole] = std::move(last);
    }
    return min;
  }

 private:
  std::vector<T> v_;
  [[no_unique_address]] Greater greater_;
};

}  // namespace scc::sim
