#include "coll/collectives.hpp"

#include <algorithm>
#include <vector>

#include "coll/detail.hpp"
#include "common/aligned.hpp"

namespace scc::coll {

namespace {

using detail::as_b;
using detail::block_range;
using detail::charged_copy;
using detail::permute_blocks;

/// Ring ReduceScatter kernel (paper Fig. 2). `work` must already contain
/// this core's input. After p-1 rounds, block (rank+1)%p of `work` holds
/// the full reduction.
sim::Task<> ring_reduce_scatter(Stack& stack, std::span<double> work,
                                ReduceOp op, const std::vector<Block>& blocks) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  const int right = (rank + 1) % p;
  const int left = (rank + p - 1) % p;
  std::size_t max_count = 0;
  for (const Block& b : blocks) max_count = std::max(max_count, b.count);
  std::span<double> tmp = stack.scratch(max_count, 0);
  for (int r = 0; r < p - 1; ++r) {
    co_await stack.round_gate();
    co_await api.overhead(mem::sw::coll_round);
    const Block& sb = blocks[static_cast<std::size_t>((rank - r + p) % p)];
    const Block& rb = blocks[static_cast<std::size_t>((rank - r - 1 + p) % p)];
    std::span<double> recv_tmp = tmp.subspan(0, rb.count);
    co_await stack.exchange(as_b(work.subspan(sb.offset, sb.count)), right,
                            as_b(recv_tmp), left);
    co_await rcce::apply_reduce(api, recv_tmp,
                                work.subspan(rb.offset, rb.count), op);
  }
}

/// Ring Allgather of the blocks of `data`, where core i initially holds
/// block (i + off) mod p and block_of(b) is block b's element range. After
/// p-1 rounds every core holds every block. Allgather (equal blocks),
/// Allgatherv, Allreduce and long Broadcast all run this one ring.
template <class BlockOf>
sim::Task<> ring_allgather(Stack& stack, std::span<double> data, int off,
                           BlockOf block_of) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  const int right = (rank + 1) % p;
  const int left = (rank + p - 1) % p;
  for (int r = 0; r < p - 1; ++r) {
    co_await stack.round_gate();
    co_await api.overhead(mem::sw::coll_round);
    const Block sb = block_of(((rank + off - r) % p + p) % p);
    const Block rb = block_of(((rank + off - r - 1) % p + p) % p);
    co_await stack.exchange(as_b(std::span<const double>(
                                data.subspan(sb.offset, sb.count))),
                            right, as_b(data.subspan(rb.offset, rb.count)),
                            left);
  }
}

/// block_of for ring_allgather over a split table.
[[nodiscard]] auto table_blocks(const std::vector<Block>& blocks) {
  return [&blocks](int b) { return blocks[static_cast<std::size_t>(b)]; };
}

/// Binomial down-tree from `root`. The core at relative rank rel receives
/// span_of(rel, end) from its parent, then sends span_of(c, end') to each
/// child c, largest subtree first; [rel, end) and [c, end') are the
/// relative ranks each subtree covers, clamped to p. Broadcast and the
/// Allreduce short path pass the whole vector for every range; Scatter and
/// long Broadcast pass the blocks the range covers.
template <class SpanOf>
sim::Task<> binomial_down(Stack& stack, int root, SpanOf span_of) {
  const int p = stack.num_cores();
  const int rel = (stack.rank() - root + p) % p;
  int mask = 1;
  if (rel != 0) {
    while ((rel & mask) == 0) mask <<= 1;
    co_await stack.round_gate();
    co_await stack.recv(as_b(span_of(rel, std::min(rel + mask, p))),
                        (rel - mask + root + p) % p);
  } else {
    while (mask < p) mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    co_await stack.round_gate();
    if (rel + mask < p) {
      co_await stack.send(as_b(std::span<const double>(span_of(
                              rel + mask, std::min(rel + 2 * mask, p)))),
                          (rel + mask + root) % p);
    }
  }
}

/// span_of for binomial_down that hands every subtree the whole vector.
/// Captures by reference: a by-value span grows Broadcast's coroutine frame
/// into the next frame-arena size class.
[[nodiscard]] auto whole(std::span<double>& data) {
  return [&data](int, int) { return data; };
}

/// Binomial-tree reduce of the full vector to `root` (RCCE_comm's
/// short-vector variant; used when n < p so the ring would degenerate to
/// empty blocks).
sim::Task<> reduce_binomial(Stack& stack, std::span<const double> in,
                            std::span<double> out, ReduceOp op, int root) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rel = (stack.rank() - root + p) % p;
  std::span<double> acc = stack.scratch(in.size(), 1);
  std::copy(in.begin(), in.end(), acc.begin());
  co_await api.priv_read(in.data(), in.size_bytes());
  co_await api.priv_write(acc.data(), acc.size_bytes());
  std::span<double> tmp = stack.scratch(in.size(), 2);
  int mask = 1;
  while (mask < p) {
    co_await stack.round_gate();
    if (rel & mask) {
      const int dst = (rel - mask + root + p) % p;
      co_await stack.send(as_b(std::span<const double>(acc.data(), acc.size())),
                          dst);
      break;
    }
    if (rel + mask < p) {
      const int src = (rel + mask + root) % p;
      co_await stack.recv(as_b(tmp), src);
      co_await rcce::apply_reduce(api, tmp, acc, op);
    }
    mask <<= 1;
  }
  if (rel == 0) {
    co_await charged_copy(api, acc, out);
  }
}

}  // namespace

sim::Task<> allgather(Stack& stack, std::span<const double> contribution,
                      std::span<double> gathered, Algo algo) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  const std::size_t n = contribution.size();
  SCC_EXPECTS(gathered.size() == n * static_cast<std::size_t>(p));
  if (algo == Algo::kAuto) {
    algo = select_algo(CollKind::kAllgather, n, p, stack.prims());
  }
  SCC_EXPECTS(algo_valid_for(CollKind::kAllgather, algo));
  co_await api.overhead(mem::sw::coll_call);
  if (algo == Algo::kBruck) {
    co_await allgather_bruck(stack, contribution, gathered);
    co_return;
  }
  if (algo == Algo::kRecursiveDoubling) {
    co_await allgather_recursive_doubling(stack, contribution, gathered);
    co_return;
  }
  co_await charged_copy(api, contribution,
                        gathered.subspan(static_cast<std::size_t>(rank) * n, n));
  if (p == 1) co_return;
  co_await ring_allgather(stack, gathered, 0, [n](int b) {
    return Block{static_cast<std::size_t>(b) * n, n};
  });
}

sim::Task<> alltoall(Stack& stack, std::span<const double> sendbuf,
                     std::span<double> recvbuf, Algo algo) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  SCC_EXPECTS(sendbuf.size() == recvbuf.size());
  SCC_EXPECTS(sendbuf.size() % static_cast<std::size_t>(p) == 0);
  const std::size_t n = sendbuf.size() / static_cast<std::size_t>(p);
  if (algo == Algo::kAuto) {
    algo = select_algo(CollKind::kAlltoall, n, p, stack.prims());
  }
  SCC_EXPECTS(algo_valid_for(CollKind::kAlltoall, algo));
  co_await api.overhead(mem::sw::coll_call);
  if (algo == Algo::kBruck) {
    co_await alltoall_bruck(stack, sendbuf, recvbuf);
    co_return;
  }
  // Tournament pairing: in round r, i exchanges with the j solving
  // i + j == r (mod p); pairs are disjoint, so the schedule is contention-
  // and deadlock-free. When the round pairs a core with itself it copies
  // its own block locally.
  for (int r = 0; r < p; ++r) {
    co_await stack.round_gate();
    co_await api.overhead(mem::sw::coll_round);
    const int partner = ((r - rank) % p + p) % p;
    const auto soff = static_cast<std::size_t>(partner) * n;
    const auto roff = static_cast<std::size_t>(partner) * n;
    if (partner == rank) {
      co_await charged_copy(api, sendbuf.subspan(soff, n),
                            recvbuf.subspan(roff, n));
      continue;
    }
    co_await stack.exchange_pair(as_b(sendbuf.subspan(soff, n)),
                                 as_b(recvbuf.subspan(roff, n)), partner);
  }
}

sim::Task<int> reduce_scatter(Stack& stack, std::span<const double> in,
                              std::span<double> out, ReduceOp op,
                              SplitPolicy policy, Algo algo) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  SCC_EXPECTS(out.size() == in.size());
  if (algo == Algo::kAuto) {
    algo = select_algo(CollKind::kReduceScatter, in.size(), p, stack.prims());
  }
  SCC_EXPECTS(algo_valid_for(CollKind::kReduceScatter, algo));
  co_await api.overhead(mem::sw::coll_call);
  if (algo == Algo::kRecursiveHalving) {
    co_return co_await reduce_scatter_recursive_halving(stack, in, out, op,
                                                        policy);
  }
  co_await charged_copy(api, in, out);
  if (p == 1) co_return 0;
  const auto blocks = split_blocks(in.size(), p, policy);
  co_await ring_reduce_scatter(stack, out, op, blocks);
  co_return (rank + 1) % p;
}

sim::Task<> reduce(Stack& stack, std::span<const double> in,
                   std::span<double> out, ReduceOp op, int root,
                   SplitPolicy policy) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  SCC_EXPECTS(root >= 0 && root < p);
  // Only the root's out buffer is written, but it must hold the full
  // vector: charged_copy and the linear-gather recvs below write
  // out[b.offset, b.offset+b.count) for every block.
  SCC_EXPECTS(rank != root || out.size() == in.size());
  co_await api.overhead(mem::sw::coll_call);
  if (p == 1) {
    co_await charged_copy(api, in, out);
    co_return;
  }
  if (in.size() < static_cast<std::size_t>(p)) {
    co_await reduce_binomial(stack, in, out, op, root);
    co_return;
  }
  // Phase 1: ring ReduceScatter over a scratch copy of the input.
  std::span<double> work = stack.scratch(in.size(), 1);
  co_await charged_copy(api, in, work);
  const auto blocks = split_blocks(in.size(), p, policy);
  co_await ring_reduce_scatter(stack, work, op, blocks);
  // Phase 2: linear gather of the reduced blocks to the root. Core j owns
  // block (j+1)%p; the root drains peers in ring order.
  if (rank == root) {
    const Block& own = blocks[static_cast<std::size_t>((root + 1) % p)];
    co_await charged_copy(api, work.subspan(own.offset, own.count),
                          out.subspan(own.offset, own.count));
    for (int k = 1; k < p; ++k) {
      co_await stack.round_gate();
      const int src = (root + k) % p;
      const Block& b = blocks[static_cast<std::size_t>((src + 1) % p)];
      co_await stack.recv(as_b(out.subspan(b.offset, b.count)), src);
    }
  } else {
    co_await stack.round_gate();
    const Block& own = blocks[static_cast<std::size_t>((rank + 1) % p)];
    co_await stack.send(
        as_b(std::span<const double>(work.subspan(own.offset, own.count))),
        root);
  }
}

sim::Task<> allreduce(Stack& stack, std::span<const double> in,
                      std::span<double> out, ReduceOp op, SplitPolicy policy,
                      Algo algo) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  SCC_EXPECTS(out.size() == in.size());
  if (algo == Algo::kAuto) {
    algo = select_algo(CollKind::kAllreduce, in.size(), p, stack.prims());
  }
  SCC_EXPECTS(algo_valid_for(CollKind::kAllreduce, algo));
  co_await api.overhead(mem::sw::coll_call);
  if (algo == Algo::kRecursiveDoubling) {
    co_await allreduce_recursive_doubling(stack, in, out, op);
    co_return;
  }
  if (p > 1 && in.size() < static_cast<std::size_t>(p)) {
    // Short vectors: binomial reduce to 0 + binomial broadcast
    // (RCCE_comm's small-message variant).
    co_await reduce_binomial(stack, in, out, op, 0);
    co_await binomial_down(stack, 0, whole(out));
    co_return;
  }
  co_await charged_copy(api, in, out);
  if (p == 1) co_return;
  const auto blocks = split_blocks(in.size(), p, policy);
  co_await ring_reduce_scatter(stack, out, op, blocks);
  // Core i now owns reduced block (i+1)%p -> allgather with offset 1.
  co_await ring_allgather(stack, out, 1, table_blocks(blocks));
}

sim::Task<> broadcast(Stack& stack, std::span<double> data, int root,
                      SplitPolicy policy) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  SCC_EXPECTS(root >= 0 && root < p);
  co_await api.overhead(mem::sw::coll_call);
  if (p == 1) co_return;
  if (data.size() < kBcastScatterThreshold ||
      data.size() < static_cast<std::size_t>(p)) {
    co_await binomial_down(stack, root, whole(data));
    co_return;
  }
  // Long-vector path: binomial scatter + ring allgather of blocks. Blocks
  // are indexed relative to the root: relative rank r ends the scatter
  // holding relative block r, i.e. core i holds block (i - root) mod p.
  // Relative block b covers the same element range for every policy, so the
  // split policy shapes the load balance exactly as in Section IV-C.
  const auto blocks = split_blocks(data.size(), p, policy);
  co_await binomial_down(stack, root, [&](int lo, int hi) {
    return block_range(data, blocks, lo, hi);
  });
  // Core i now holds block (i - root) mod p: ring-allgather with offset
  // -root (mod p).
  co_await ring_allgather(stack, data, (p - root % p) % p,
                          table_blocks(blocks));
}

sim::Task<> scatter(Stack& stack, std::span<const double> send,
                    std::span<double> recv, int root) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  const std::size_t n = recv.size();
  SCC_EXPECTS(root >= 0 && root < p);
  SCC_EXPECTS(rank != root || send.size() == n * static_cast<std::size_t>(p));
  co_await api.overhead(mem::sw::coll_call);
  if (p == 1) {
    co_await charged_copy(api, send.first(n), recv);
    co_return;
  }
  // Work in RELATIVE block space (block j belongs to core (root+j)%p) so
  // every binomial subtree covers a contiguous range; the root rotates its
  // rank-major buffer into that order first.
  const int rel = (rank - root + p) % p;
  std::span<double> work =
      stack.scratch(n * static_cast<std::size_t>(p), 1);
  if (rank == root) {
    co_await permute_blocks(api, send, work, n, p,
                            [root, p](int j) { return (root + j) % p; });
  }
  co_await binomial_down(stack, root, [work, n](int lo, int hi) {
    return work.subspan(static_cast<std::size_t>(lo) * n,
                        static_cast<std::size_t>(hi - lo) * n);
  });
  co_await charged_copy(
      api, work.subspan(static_cast<std::size_t>(rel) * n, n), recv);
}

sim::Task<> gather(Stack& stack, std::span<const double> send,
                   std::span<double> recv, int root) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  const std::size_t n = send.size();
  SCC_EXPECTS(root >= 0 && root < p);
  SCC_EXPECTS(rank != root || recv.size() == n * static_cast<std::size_t>(p));
  co_await api.overhead(mem::sw::coll_call);
  if (p == 1) {
    co_await charged_copy(api, send, recv.first(n));
    co_return;
  }
  const int rel = (rank - root + p) % p;
  std::span<double> work =
      stack.scratch(n * static_cast<std::size_t>(p), 1);
  co_await charged_copy(api, send,
                        work.subspan(static_cast<std::size_t>(rel) * n, n));
  // Mirror of the binomial scatter: children push their accumulated
  // relative range up toward the root.
  int mask = 1;
  while (mask < p) {
    co_await stack.round_gate();
    if (rel & mask) {
      const int dst = (rel - mask + root + p) % p;
      const int hi = std::min(rel + mask, p);
      co_await stack.send(
          as_b(std::span<const double>(
              work.subspan(static_cast<std::size_t>(rel) * n,
                           static_cast<std::size_t>(hi - rel) * n))),
          dst);
      break;
    }
    if (rel + mask < p) {
      const int src_core = (rel + mask + root) % p;
      const int hi = std::min(rel + 2 * mask, p);
      co_await stack.recv(
          as_b(work.subspan(static_cast<std::size_t>(rel + mask) * n,
                            static_cast<std::size_t>(hi - rel - mask) * n)),
          src_core);
    }
    mask <<= 1;
  }
  if (rank == root) {
    // Rotate relative block order back to rank-major.
    co_await permute_blocks(api, work, recv, n, p,
                            [root, p](int j) { return (j - root + p) % p; });
  }
}

sim::Task<> allgatherv(Stack& stack, std::span<const double> contribution,
                       std::span<const std::size_t> counts,
                       std::span<double> gathered) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  SCC_EXPECTS(counts.size() == static_cast<std::size_t>(p));
  SCC_EXPECTS(contribution.size() == counts[static_cast<std::size_t>(rank)]);
  // Per-core blocks at prefix-sum offsets.
  std::vector<Block> blocks(static_cast<std::size_t>(p));
  std::size_t offset = 0;
  for (int i = 0; i < p; ++i) {
    blocks[static_cast<std::size_t>(i)] = {offset,
                                           counts[static_cast<std::size_t>(i)]};
    offset += counts[static_cast<std::size_t>(i)];
  }
  SCC_EXPECTS(gathered.size() == offset);
  co_await api.overhead(mem::sw::coll_call);
  const Block& mine = blocks[static_cast<std::size_t>(rank)];
  co_await charged_copy(api, contribution,
                        gathered.subspan(mine.offset, mine.count));
  if (p == 1) co_return;
  // Ring: core i initially holds block i (offset 0 in the table).
  co_await ring_allgather(stack, gathered, 0, table_blocks(blocks));
}

sim::Task<> barrier(Stack& stack) {
  co_await stack.api().overhead(mem::sw::coll_call);
  co_await stack.barrier();
}

}  // namespace scc::coll
