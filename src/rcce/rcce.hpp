// RCCE-like blocking message passing (the SCC's native communication
// stack, reimplemented against the simulator's CoreApi).
//
// Semantics follow the paper's description of RCCE v1.1.0:
//  - send/recv are blocking and synchronize twice (Fig. 3): the receiver
//    waits for the sender to stage data, the sender waits until the
//    receiver picked it up;
//  - the receiver must know the sender and the exact size "in advance";
//  - messages larger than the MPB payload chunk are split into chunks,
//    each individually handshaked.
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

 private:
  machine::CoreApi* api_;
  const Layout* layout_;
  std::uint8_t barrier_epoch_ = 0;
};

/// The one element-wise reduction loop: acc[i] = acc[i] op value[i].
/// Charges nothing.
void reduce_into(std::span<double> acc, std::span<const double> value,
                 ReduceOp op);

/// reduce_into plus its cost: reads of both operands, the per-element
/// compute cycles and the write of `acc`. Shared by all layers.
sim::Task<> apply_reduce(machine::CoreApi& api, std::span<const double> value,
                         std::span<double> acc, ReduceOp op);

}  // namespace scc::rcce
