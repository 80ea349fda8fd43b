// RCCE-like blocking message passing (the SCC's native communication
// stack, reimplemented against the simulator's CoreApi).
//
// Semantics follow the paper's description of RCCE v1.1.0:
//  - send/recv are blocking and synchronize twice (Fig. 3): the receiver
//    waits for the sender to stage data, the sender waits until the
//    receiver picked it up;
//  - the receiver must know the sender and the exact size "in advance";
//  - messages larger than the MPB payload chunk are split into chunks,
//    each individually handshaked;
//  - the library ships naive collectives in which the root communicates
//    with the other cores serially (Section III).
//
// One Rcce object exists per simulated core (SPMD style).
#pragma once

#include <cstddef>
#include <span>

#include "machine/core_api.hpp"
#include "rcce/layout.hpp"
#include "sim/task.hpp"

namespace scc::rcce {

/// Reduction operators of the RCCE "non-gory" collective interface.
enum class ReduceOp { kSum, kMax, kMin, kProd };

class Rcce {
 public:
  Rcce(machine::CoreApi& api, const Layout& layout)
      : api_(&api), layout_(&layout) {}

  [[nodiscard]] int rank() const { return api_->rank(); }
  [[nodiscard]] int num_cores() const { return layout_->num_cores(); }
  [[nodiscard]] machine::CoreApi& api() { return *api_; }
  [[nodiscard]] const Layout& layout() const { return *layout_; }

  /// Blocking send: returns only after `dest` has consumed every chunk.
  sim::Task<> send(std::span<const std::byte> data, int dest);

  /// Blocking receive: source and size must match the send exactly.
  sim::Task<> recv(std::span<std::byte> data, int src);

  /// Dissemination barrier over MPB flags.
  sim::Task<> barrier();

  /// Plain-RCCE broadcast: the root sends to every other core in turn.
  sim::Task<> bcast_naive(std::span<std::byte> data, int root);

  /// Plain-RCCE reduce: every core sends its vector to the root, which
  /// performs the whole reduction by itself (paper, Section III). With
  /// `all` set the root then broadcasts the result (naive Allreduce).
  sim::Task<> reduce_naive(std::span<const double> in, std::span<double> out,
                           ReduceOp op, int root, bool all);

 private:
  machine::CoreApi* api_;
  const Layout* layout_;
  std::uint8_t barrier_epoch_ = 0;
};

/// Applies `op` element-wise: acc[i] = acc[i] op value[i]. Charges compute
/// cycles; callers charge the memory traffic. Shared by all layers.
sim::Task<> apply_reduce(machine::CoreApi& api, std::span<const double> value,
                         std::span<double> acc, ReduceOp op);

}  // namespace scc::rcce
