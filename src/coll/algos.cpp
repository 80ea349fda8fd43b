#include "coll/algos.hpp"

#include <algorithm>
#include <vector>

#include "coll/detail.hpp"

namespace scc::coll {

namespace {

using detail::as_b;
using detail::block_range;
using detail::charged_copy;
using detail::permute_blocks;

[[nodiscard]] std::span<const double> cspan(std::span<double> s) {
  return {s.data(), s.size()};
}

// Selector switch points in elements (doubles). Below the threshold the
// round count dominates the simulated latency (each round pays coll_round
// plus a flag handshake), so the log-round algorithm wins; above it the
// extra copies/volume of the log-round schedules lose to the ring's
// in-place pipelining. Calibrated against bench/tab_algo_select on the
// default 48-core mesh; see DESIGN.md §12.
// Switch points measured by bench/tab_algo_select on the paper's 48-core
// mesh (see the committed selection table and DESIGN.md §12); crossovers
// between grid sizes are placed at the last size the variant won.
constexpr std::size_t kAllgatherShortElems = 128;
constexpr std::size_t kAllgatherBlockingShortElems = 16;
constexpr std::size_t kReduceScatterMaxElems = 2048;
constexpr std::size_t kAllreduceMaxElems = 1024;
constexpr std::size_t kAlltoallShortElems = 32;  // per destination block

[[nodiscard]] constexpr bool is_pow2(int p) {
  return p > 0 && (p & (p - 1)) == 0;
}

/// Non-power-of-two folding (MPICH-style): with r = p - 2^floor(log2 p),
/// original ranks 2i and 2i+1 (i < r) fold into virtual rank i represented
/// by the even rank; ranks >= 2r map to virtual rank (rank - r). The map
/// is monotone, so a virtual-rank range always covers a contiguous range
/// of original ranks/blocks.
struct Fold {
  int m = 1;      // largest power of two <= p
  int r = 0;      // p - m folded pairs
  bool paired = false;  // rank < 2r: takes part in the fold/unfold rounds
  bool rep = true;  // participates in the power-of-two phase
  int vrank = 0;  // virtual rank (valid when rep)
};

[[nodiscard]] Fold make_fold(int p, int rank) {
  Fold f;
  while (f.m * 2 <= p) f.m *= 2;
  f.r = p - f.m;
  f.paired = rank < 2 * f.r;
  if (f.paired) {
    f.rep = rank % 2 == 0;
    f.vrank = rank / 2;
  } else {
    f.rep = true;
    f.vrank = rank - f.r;
  }
  return f;
}

/// First original rank (== first original block) of virtual rank v; also
/// the representative core of v. vstart(m) == p closes the last range.
[[nodiscard]] int vstart(const Fold& f, int v) {
  return v < f.r ? 2 * v : v + f.r;
}

/// Element range covering virtual blocks [vlo, vhi).
[[nodiscard]] std::span<double> vrange(const Fold& f, std::span<double> data,
                                       const std::vector<Block>& blocks,
                                       int vlo, int vhi) {
  return block_range(data, blocks, vstart(f, vlo), vstart(f, vhi));
}

/// Fold round, on a paired rank only: the odd rank of the pair sends
/// `mine` to its even partner, which receives `theirs` and, given an `op`,
/// reduces it into `mine`.
sim::Task<> fold(Stack& stack, std::span<double> mine,
                 std::span<double> theirs,
                 std::optional<ReduceOp> op = std::nullopt) {
  auto& api = stack.api();
  const int rank = stack.rank();
  co_await stack.round_gate();
  co_await api.overhead(mem::sw::coll_round);
  if (rank % 2 == 1) {
    co_await stack.send(as_b(cspan(mine)), rank - 1);
  } else {
    co_await stack.recv(as_b(theirs), rank + 1);
    if (op) co_await rcce::apply_reduce(api, theirs, mine, *op);
  }
}

/// Unfold round, on a paired rank only: the even rank sends `data` back to
/// its odd partner, which receives it in place.
sim::Task<> unfold(Stack& stack, std::span<double> data) {
  auto& api = stack.api();
  const int rank = stack.rank();
  co_await stack.round_gate();
  co_await api.overhead(mem::sw::coll_round);
  if (rank % 2 == 0) {
    co_await stack.send(as_b(cspan(data)), rank + 1);
  } else {
    co_await stack.recv(as_b(data), rank - 1);
  }
}

}  // namespace

std::optional<Algo> parse_algo(std::string_view name) {
  for (const Algo a :
       {Algo::kAuto, Algo::kRing, Algo::kRecursiveHalving, Algo::kBruck,
        Algo::kRecursiveDoubling, Algo::kRingRS, Algo::kPairwise}) {
    if (name == algo_name(a)) return a;
  }
  return std::nullopt;
}

const std::vector<Algo>& algos_for(CollKind kind) {
  static const std::vector<Algo> allgather{Algo::kRing, Algo::kBruck,
                                           Algo::kRecursiveDoubling};
  static const std::vector<Algo> alltoall{Algo::kPairwise, Algo::kBruck};
  static const std::vector<Algo> reduce_scatter{Algo::kRing,
                                                Algo::kRecursiveHalving};
  static const std::vector<Algo> allreduce{Algo::kRingRS,
                                           Algo::kRecursiveDoubling};
  switch (kind) {
    case CollKind::kAllgather: return allgather;
    case CollKind::kAlltoall: return alltoall;
    case CollKind::kReduceScatter: return reduce_scatter;
    case CollKind::kAllreduce: return allreduce;
  }
  return allgather;
}

Algo paper_algo(CollKind kind) { return algos_for(kind).front(); }

bool algo_valid_for(CollKind kind, Algo algo) {
  const std::vector<Algo>& valid = algos_for(kind);
  return std::find(valid.begin(), valid.end(), algo) != valid.end();
}

Algo select_algo(CollKind kind, std::size_t n, int p, Prims prims) {
  // The blocking layer serializes even-distance shift rounds around each
  // exchange cycle (Stack::exchange_shift's cycle-breaker ordering), which
  // eats Bruck's round-count advantage; the pairwise rounds of recursive
  // halving/doubling stay fully parallel on every layer.
  const bool blocking = prims == Prims::kBlocking;
  switch (kind) {
    case CollKind::kAllgather:
      if (p <= 2) return Algo::kRing;
      if (blocking) {
        // Bruck's shift rounds serialize on the blocking layer, so only
        // recursive doubling's pairwise rounds beat the ring, and only in
        // the latency regime.
        return n <= kAllgatherBlockingShortElems ? Algo::kRecursiveDoubling
                                                 : Algo::kRing;
      }
      if (n <= kAllgatherShortElems) {
        return is_pow2(p) ? Algo::kRecursiveDoubling : Algo::kBruck;
      }
      return Algo::kRing;
    case CollKind::kReduceScatter:
      // Same total volume as the ring but ceil(log2 p) rounds instead of
      // p-1; the ring only recovers once its pipelined single-block
      // transfers amortize all those rounds (large vectors).
      if (p <= 2) return Algo::kRing;
      return n <= kReduceScatterMaxElems ? Algo::kRecursiveHalving
                                         : Algo::kRing;
    case CollKind::kAllreduce:
      // Full-vector doubling trades ~2n of ring volume for ceil(log2 p)*n,
      // which wins until the vector is large enough that volume dominates
      // the 2(p-1) ring rounds.
      if (p <= 2) return Algo::kRingRS;
      return n <= kAllreduceMaxElems ? Algo::kRecursiveDoubling
                                     : Algo::kRingRS;
    case CollKind::kAlltoall:
      // Bruck halves the round count but multiplies volume by ~log2(p)/2;
      // only the per-block latency regime benefits, and only where shift
      // rounds do not serialize.
      if (p > 2 && !blocking && n <= kAlltoallShortElems) return Algo::kBruck;
      return Algo::kPairwise;
  }
  return Algo::kRing;
}

sim::Task<> allgather_bruck(Stack& stack, std::span<const double> contribution,
                            std::span<double> gathered) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  const std::size_t n = contribution.size();
  SCC_EXPECTS(gathered.size() == n * static_cast<std::size_t>(p));
  if (p == 1) {
    co_await charged_copy(api, contribution, gathered);
    co_return;
  }
  std::span<double> work =
      stack.scratch(n * static_cast<std::size_t>(p), 1);
  co_await charged_copy(api, contribution, work.subspan(0, n));
  for (int d = 1; d < p; d <<= 1) {
    co_await stack.round_gate();
    co_await api.overhead(mem::sw::coll_round);
    const auto cnt = static_cast<std::size_t>(std::min(d, p - d));
    co_await stack.exchange_shift(
        as_b(cspan(work.subspan(0, cnt * n))),
        as_b(work.subspan(static_cast<std::size_t>(d) * n, cnt * n)), -d);
  }
  // work[j] now holds block (rank + j) mod p; rotate to rank-major order.
  if (!gathered.empty()) {
    co_await permute_blocks(api, work, gathered, n, p,
                            [rank, p](int k) { return (k - rank + p) % p; });
  }
}

sim::Task<> allgather_recursive_doubling(Stack& stack,
                                         std::span<const double> contribution,
                                         std::span<double> gathered) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  const std::size_t n = contribution.size();
  SCC_EXPECTS(gathered.size() == n * static_cast<std::size_t>(p));
  co_await charged_copy(api, contribution,
                        gathered.subspan(static_cast<std::size_t>(rank) * n,
                                         n));
  if (p == 1) co_return;
  const Fold f = make_fold(p, rank);
  const auto blocks_of = [&](int lo, int hi) {
    return gathered.subspan(static_cast<std::size_t>(lo) * n,
                            static_cast<std::size_t>(hi - lo) * n);
  };
  // Fold: the odd rank of each folded pair hands its block to the even
  // representative.
  if (f.paired) {
    co_await fold(stack, blocks_of(rank, rank + 1),
                  blocks_of(rank + 1, rank + 2));
  }
  if (f.rep) {
    for (int mask = 1; mask < f.m; mask <<= 1) {
      co_await stack.round_gate();
      co_await api.overhead(mem::sw::coll_round);
      const int mybase = (f.vrank / mask) * mask;
      const int pbase = mybase ^ mask;
      const int partner = vstart(f, f.vrank ^ mask);
      co_await stack.exchange_pair(
          as_b(cspan(blocks_of(vstart(f, mybase), vstart(f, mybase + mask)))),
          as_b(blocks_of(vstart(f, pbase), vstart(f, pbase + mask))),
          partner);
    }
  }
  // Unfold: representatives push the completed vector back to the odd rank
  // of their pair.
  if (f.paired) co_await unfold(stack, gathered);
}

sim::Task<int> reduce_scatter_recursive_halving(Stack& stack,
                                                std::span<const double> in,
                                                std::span<double> out,
                                                ReduceOp op,
                                                SplitPolicy policy) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  SCC_EXPECTS(out.size() == in.size());
  co_await charged_copy(api, in, out);
  if (p == 1) co_return 0;
  const auto blocks = split_blocks(in.size(), p, policy);
  const Fold f = make_fold(p, rank);
  std::span<double> tmp = stack.scratch(in.size(), 0);
  // Fold: the odd rank of each pair sends its whole accumulator; the even
  // representative reduces it in, then owns the pair's two blocks.
  if (f.paired) co_await fold(stack, out, tmp.subspan(0, out.size()), op);
  if (f.rep) {
    // Vector halving among the representatives: in each round, keep the
    // half of the still-owed virtual range containing vrank, exchange the
    // other half with the partner, and reduce what arrives.
    int lo = 0;
    int hi = f.m;
    for (int mask = f.m >> 1; mask >= 1; mask >>= 1) {
      co_await stack.round_gate();
    co_await api.overhead(mem::sw::coll_round);
      const int partner = vstart(f, f.vrank ^ mask);
      int keep_lo = lo;
      int keep_hi = lo + mask;
      int send_lo = lo + mask;
      int send_hi = hi;
      if (f.vrank & mask) {
        keep_lo = lo + mask;
        keep_hi = hi;
        send_lo = lo;
        send_hi = lo + mask;
      }
      std::span<double> keep = vrange(f, out, blocks, keep_lo, keep_hi);
      std::span<double> t = tmp.subspan(0, keep.size());
      co_await stack.exchange_pair(
          as_b(cspan(vrange(f, out, blocks, send_lo, send_hi))), as_b(t),
          partner);
      co_await rcce::apply_reduce(api, t, keep, op);
      lo = keep_lo;
      hi = keep_hi;
    }
  }
  // Unfold: representatives of folded pairs return the odd rank's reduced
  // block. Every core ends up owning original block `rank`.
  if (f.paired) {
    const Block& b = blocks[static_cast<std::size_t>(rank | 1)];
    co_await unfold(stack, out.subspan(b.offset, b.count));
  }
  co_return rank;
}

sim::Task<> allreduce_recursive_doubling(Stack& stack,
                                         std::span<const double> in,
                                         std::span<double> out, ReduceOp op) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  SCC_EXPECTS(out.size() == in.size());
  co_await charged_copy(api, in, out);
  if (p == 1) co_return;
  const Fold f = make_fold(p, rank);
  std::span<double> tmp = stack.scratch(out.size(), 0);
  if (f.paired) co_await fold(stack, out, tmp, op);
  if (f.rep) {
    for (int mask = 1; mask < f.m; mask <<= 1) {
      co_await stack.round_gate();
    co_await api.overhead(mem::sw::coll_round);
      const int partner = vstart(f, f.vrank ^ mask);
      co_await stack.exchange_pair(as_b(cspan(out)), as_b(tmp), partner);
      co_await rcce::apply_reduce(api, tmp, out, op);
    }
  }
  if (f.paired) co_await unfold(stack, out);
}

sim::Task<> alltoall_bruck(Stack& stack, std::span<const double> sendbuf,
                           std::span<double> recvbuf) {
  auto& api = stack.api();
  const int p = stack.num_cores();
  const int rank = stack.rank();
  SCC_EXPECTS(sendbuf.size() == recvbuf.size());
  SCC_EXPECTS(sendbuf.size() % static_cast<std::size_t>(p) == 0);
  const std::size_t n = sendbuf.size() / static_cast<std::size_t>(p);
  std::span<double> work = stack.scratch(sendbuf.size(), 0);
  // Rotate so work[j] is the block destined to (rank + j) mod p; block 0
  // (the self block) then never moves.
  if (!sendbuf.empty()) {
    co_await permute_blocks(api, sendbuf, work, n, p,
                            [rank, p](int j) { return (rank + j) % p; });
  }
  // Round d forwards every block whose index has bit d set by d ranks;
  // each block travels exactly the set bits of its index, so after the
  // rounds work[i] holds the block from source (rank - i) mod p.
  for (int d = 1; d < p; d <<= 1) {
    co_await stack.round_gate();
    co_await api.overhead(mem::sw::coll_round);
    std::size_t cnt = 0;
    for (int j = d; j < p; ++j) {
      if ((j & d) != 0) ++cnt;
    }
    std::span<double> spack = stack.scratch(cnt * n, 1);
    std::span<double> rpack = stack.scratch(cnt * n, 2);
    std::size_t k = 0;
    for (int j = d; j < p; ++j) {
      if ((j & d) == 0) continue;
      co_await charged_copy(api,
                            cspan(work.subspan(static_cast<std::size_t>(j) * n,
                                               n)),
                            spack.subspan(k * n, n));
      ++k;
    }
    co_await stack.exchange_shift(as_b(cspan(spack)), as_b(rpack), d);
    k = 0;
    for (int j = d; j < p; ++j) {
      if ((j & d) == 0) continue;
      co_await charged_copy(api, cspan(rpack.subspan(k * n, n)),
                            work.subspan(static_cast<std::size_t>(j) * n, n));
      ++k;
    }
  }
  // Inverse rotation into source-major order.
  if (!recvbuf.empty()) {
    co_await permute_blocks(api, work, recvbuf, n, p,
                            [rank, p](int k) { return (rank - k + p) % p; });
  }
}

}  // namespace scc::coll
