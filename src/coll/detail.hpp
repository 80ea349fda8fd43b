// Internal helpers shared by the collective kernels (collectives.cpp and
// algos.cpp). Not part of the public coll API.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "coll/block_split.hpp"
#include "coll/stack.hpp"
#include "sim/task.hpp"

namespace scc::coll::detail {

[[nodiscard]] inline std::span<const std::byte> as_b(
    std::span<const double> s) {
  return std::as_bytes(s);
}
[[nodiscard]] inline std::span<std::byte> as_b(std::span<double> s) {
  return std::as_writable_bytes(s);
}

/// Charged local element copy (used for self blocks / initial copies).
inline sim::Task<> charged_copy(machine::CoreApi& api,
                                std::span<const double> src,
                                std::span<double> dst) {
  SCC_EXPECTS(src.size() == dst.size());
  if (src.empty()) co_return;
  co_await api.priv_read(src.data(), src.size_bytes());
  std::copy(src.begin(), src.end(), dst.begin());
  co_await api.compute(src.size() * mem::sw::copy_cycles_per_element);
  co_await api.priv_write(dst.data(), dst.size_bytes());
}

/// Charged block permutation: block j (n elements) of `dst` becomes block
/// src_of(j) of `src`, for j in [0, p); then one read of all of `src` and
/// one write of all of `dst` are charged. Used for the rank-major <->
/// relative-order rotations of Scatter, Gather and both Brucks.
template <class SrcOf>
sim::Task<> permute_blocks(machine::CoreApi& api, std::span<const double> src,
                           std::span<double> dst, std::size_t n, int p,
                           SrcOf src_of) {
  for (int j = 0; j < p; ++j) {
    const auto from = static_cast<std::size_t>(src_of(j)) * n;
    std::copy_n(src.data() + from, n,
                dst.data() + static_cast<std::size_t>(j) * n);
  }
  co_await api.priv_read(src.data(), src.size_bytes());
  co_await api.priv_write(dst.data(), dst.size_bytes());
}

/// Element range of `data` covering blocks [lo, hi) of `blocks`.
[[nodiscard]] inline std::span<double> block_range(
    std::span<double> data, const std::vector<Block>& blocks, int lo,
    int hi) {
  if (lo >= hi) return data.subspan(0, 0);
  const std::size_t first = blocks[static_cast<std::size_t>(lo)].offset;
  const Block& last = blocks[static_cast<std::size_t>(hi - 1)];
  return data.subspan(first, last.offset + last.count - first);
}

}  // namespace scc::coll::detail
