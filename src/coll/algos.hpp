// Algorithm variants for the collectives, beyond the single schedule per
// collective that RCCE_comm (and the paper's evaluation) hard-codes. The
// paper's own observation -- the best schedule depends on the vector size
// and on how much each synchronization point costs -- generalizes to the
// classic latency/bandwidth algorithm space:
//
//   Allgather      -- ring (paper) | Bruck | recursive doubling
//   ReduceScatter  -- ring (paper) | recursive halving
//   Allreduce      -- ring RS + ring AG (paper) | recursive doubling
//   Alltoall       -- pairwise tournament (paper) | Bruck
//
// Every variant is written against the same Stack abstraction, so each one
// runs unchanged on all three message-passing layers (blocking RCCE, iRCCE,
// lightweight) and produces element-wise identical results -- which the
// conformance harness checks per (collective, algorithm, stack, policy)
// cell. select_algo() is the analytic Selector; bench/tab_algo_select
// measures the actual crossovers and emits the selection table.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "coll/block_split.hpp"
#include "coll/stack.hpp"
#include "rcce/rcce.hpp"
#include "sim/task.hpp"

namespace scc::coll {

using rcce::ReduceOp;

enum class Algo {
  kAuto,               // let select_algo() pick from (collective, n, p, prims)
  kRing,               // paper ring (Allgather, ReduceScatter)
  kRecursiveHalving,   // ReduceScatter: vector halving over ceil(log2 p) rounds
  kBruck,              // Allgather / Alltoall: log-round shifted exchange
  kRecursiveDoubling,  // Allgather / Allreduce: pairwise doubling rounds
  kRingRS,             // paper Allreduce (ring ReduceScatter + ring Allgather)
  kPairwise,           // paper Alltoall (tournament pairing)
};

/// The collectives that have an algorithm dimension. Kept separate from
/// harness::Collective (coll cannot depend on harness); the harness maps
/// its enum onto this one.
enum class CollKind { kAllgather, kAlltoall, kReduceScatter, kAllreduce };

[[nodiscard]] constexpr std::string_view algo_name(Algo a) {
  switch (a) {
    case Algo::kAuto: return "auto";
    case Algo::kRing: return "ring";
    case Algo::kRecursiveHalving: return "recursive-halving";
    case Algo::kBruck: return "bruck";
    case Algo::kRecursiveDoubling: return "recursive-doubling";
    case Algo::kRingRS: return "ring-rs";
    case Algo::kPairwise: return "pairwise";
  }
  return "?";
}

/// Inverse of algo_name (including "auto"); nullopt for unknown names.
[[nodiscard]] std::optional<Algo> parse_algo(std::string_view name);

/// Concrete algorithms implemented for `kind`, the paper's algorithm first.
[[nodiscard]] const std::vector<Algo>& algos_for(CollKind kind);

/// The algorithm the paper's RCCE_comm uses for `kind` (what Algo-less call
/// sites and committed baselines run).
[[nodiscard]] Algo paper_algo(CollKind kind);

[[nodiscard]] bool algo_valid_for(CollKind kind, Algo algo);

/// The Selector: picks a concrete algorithm from (collective, n, p, prims).
/// Deterministic and purely analytic -- see DESIGN.md §12 for the cost
/// rationale behind each switch point; bench/tab_algo_select measures the
/// real crossovers against it.
[[nodiscard]] Algo select_algo(CollKind kind, std::size_t n, int p,
                               Prims prims);

// --- Algorithm kernels -------------------------------------------------
//
// Called by the public dispatchers in collectives.cpp after the coll_call
// overhead has been charged; they charge their own per-round overheads.
// Buffer contracts match the corresponding public collective.

/// Bruck Allgather: every rank keeps its own block at position 0 of a
/// scratch buffer; round d in {1,2,4,...} sends the first min(d, p-d)
/// blocks to (rank-d) while receiving from (rank+d); one final local
/// rotation restores rank-major order. ceil(log2 p) rounds for any p.
sim::Task<> allgather_bruck(Stack& stack, std::span<const double> contribution,
                            std::span<double> gathered);

/// Recursive-doubling Allgather working in place in `gathered`. Non-power-
/// of-two p folds the first 2r ranks (r = p - 2^floor(log2 p)) into r
/// representatives, doubles among the 2^floor(log2 p) virtual ranks, then
/// unfolds. Virtual rank order is monotone in original rank, so every
/// transfer is one contiguous span of `gathered`.
sim::Task<> allgather_recursive_doubling(Stack& stack,
                                         std::span<const double> contribution,
                                         std::span<double> gathered);

/// Recursive-halving ReduceScatter (fold + vector halving + unfold).
/// Returns the owned block index, which is `rank` (the ring variant owns
/// (rank+1) mod p instead -- callers must use the returned index).
sim::Task<int> reduce_scatter_recursive_halving(Stack& stack,
                                                std::span<const double> in,
                                                std::span<double> out,
                                                ReduceOp op,
                                                SplitPolicy policy);

/// Recursive-doubling Allreduce: full-vector exchange-and-reduce over
/// ceil(log2 p) rounds (plus fold/unfold for non-power-of-two p).
sim::Task<> allreduce_recursive_doubling(Stack& stack,
                                         std::span<const double> in,
                                         std::span<double> out, ReduceOp op);

/// Bruck Alltoall: local rotation, then round d in {1,2,4,...} forwards
/// every block whose index has bit d set to (rank+d), then one inverse
/// rotation. ceil(log2 p) rounds trading extra volume for round count.
sim::Task<> alltoall_bruck(Stack& stack, std::span<const double> sendbuf,
                           std::span<double> recvbuf);

}  // namespace scc::coll
