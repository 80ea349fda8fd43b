// RCKMPI-style MPI layer: MPICH-flavoured collectives over the packetized
// SCCMPB channel (point-to-point goes through channel() directly).
//
// This is the paper's comparison baseline ("a standard MPI implementation",
// Section V). The algorithms are MPICH's, with RCKMPI's SCC tuning for long
// vectors:
//   Bcast          -- binomial tree (short) / binomial scatter + ring
//                     allgather of the blocks (long: n >= 4p)
//   Reduce         -- binomial tree (short: n < p) / ring ReduceScatter +
//                     the owned blocks sent to the root (long)
//   Allreduce      -- recursive doubling (short: n <= 256 or n < p) / ring
//                     ReduceScatter + ring Allgather (long)
//   Allgather      -- ring over duplex sendrecv
//   Alltoall       -- pairwise tournament over duplex sendrecv
//   ReduceScatter  -- ring (bucket) algorithm
//   Barrier        -- dissemination with zero-byte messages
// The heavy per-message cost (MPI call entry, per-packet processing,
// matching) comes from the channel + the mem::sw::mpi_* constants.
#pragma once

#include <array>
#include <span>

#include "coll/block_split.hpp"
#include "common/aligned.hpp"
#include "rckmpi/channel.hpp"
#include "rcce/rcce.hpp"  // ReduceOp + apply_reduce
#include "sim/task.hpp"

namespace scc::rckmpi {

using rcce::ReduceOp;

class Mpi {
 public:
  Mpi(machine::CoreApi& api, const ChannelLayout& layout)
      : channel_(api, layout) {}

  [[nodiscard]] int rank() const { return channel_.rank(); }
  [[nodiscard]] int size() const { return channel_.layout().num_cores(); }
  [[nodiscard]] Channel& channel() { return channel_; }
  [[nodiscard]] machine::CoreApi& api() { return channel_.api(); }

  // --- collectives ---------------------------------------------------------
  sim::Task<> bcast(std::span<double> data, int root);
  sim::Task<> reduce(std::span<const double> in, std::span<double> out,
                     ReduceOp op, int root);
  sim::Task<> allreduce(std::span<const double> in, std::span<double> out,
                        ReduceOp op);
  sim::Task<> allgather(std::span<const double> contribution,
                        std::span<double> gathered);
  sim::Task<> alltoall(std::span<const double> sendbuf,
                       std::span<double> recvbuf);
  /// (Algorithm selection mirrors RCKMPI rev 303's tuning on the SCC:
  /// ring/bucket algorithms for long vectors, trees for short ones.)
  /// ReduceScatter via the ring/bucket algorithm: `out` is full-size; only
  /// the owned block's range is written. Returns the owned block index,
  /// (rank+1) mod p (ring-direction artefact, as in RCCE_comm).
  sim::Task<int> reduce_scatter(std::span<const double> in,
                                std::span<double> out, ReduceOp op);
  sim::Task<> barrier();

  /// Element count below which allreduce uses recursive doubling.
  static constexpr std::size_t kRecursiveDoublingMax = 256;

  /// Persistent scratch (never per-call heap temporaries: cache behaviour
  /// must not depend on host allocator address reuse). Public because the
  /// internal ring-algorithm helpers live in a detail namespace.
  [[nodiscard]] std::span<double> scratch_span(std::size_t elems, int slot) {
    auto& buf = scratch_[static_cast<std::size_t>(slot)];
    if (buf.size() < elems) buf.resize(elems);
    return {buf.data(), elems};
  }

 private:
  /// Short-vector Reduce (binomial tree).
  sim::Task<> reduce_binomial(std::span<const double> in,
                              std::span<double> out, ReduceOp op, int root);

  Channel channel_;
  std::array<aligned_vector<double>, 3> scratch_;
};

}  // namespace scc::rckmpi
