// One core's communication endpoint for the paper's variant ladder.
//
// Every variant of Fig. 9 / Fig. 10 is a point on one ladder: a primitive
// layer (§IV-A/B, prims_of), a block split (§IV-C, split_of) and, for
// `mpb`, the MPB-direct Allreduce (§IV-D), beside the RCKMPI baseline.
// CommLayout builds the run-wide layouts a variant needs and Comm owns one
// core's objects, so the choice of library call behind a collective is
// made here, once, for the runner, the traffic generator and the GCMC app.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "coll/algos.hpp"
#include "coll/block_split.hpp"
#include "coll/mpb_allreduce.hpp"
#include "coll/nbc.hpp"
#include "coll/stack.hpp"
#include "harness/runner.hpp"
#include "machine/config.hpp"
#include "rcce/layout.hpp"
#include "rckmpi/mpi.hpp"

namespace scc::harness {

/// The run-wide layouts of one variant: the RCCE layout every core's Comm
/// shares and, for rckmpi, the RCKMPI channel layout over it. Construction
/// raises config.flags_per_core to cover them and, when nbc_lanes > 0, the
/// widest progress-engine lane. Pinned in place: the channel layout and
/// every Comm point into it.
class CommLayout {
 public:
  CommLayout(machine::SccConfig& config, PaperVariant variant,
             int nbc_lanes = 0);
  CommLayout(const CommLayout&) = delete;
  CommLayout& operator=(const CommLayout&) = delete;

  [[nodiscard]] const rcce::Layout& layout() const { return layout_; }
  /// Null unless the variant is rckmpi.
  [[nodiscard]] const rckmpi::ChannelLayout* channel() const {
    return channel_ ? &*channel_ : nullptr;
  }

 private:
  rcce::Layout layout_;
  std::optional<rckmpi::ChannelLayout> channel_;
};

/// One core's collectives under one variant. Owns the Stack, the MPB-direct
/// Allreduce (its handshake sequence state persists across calls by
/// design), the RCKMPI endpoint for rckmpi and, when nbc_lanes > 0, a
/// progress engine. `split` and `algo` apply to the Stack-based schedules;
/// an unset algo is the paper's.
class Comm {
 public:
  Comm(machine::CoreApi& api, const CommLayout& layout, PaperVariant variant,
       coll::SplitPolicy split, std::optional<coll::Algo> algo = std::nullopt,
       int nbc_lanes = 0);

  /// Blocking call: runs `c` to completion on this core. Broadcast works in
  /// place on `out`; Allgatherv takes the per-core `counts`. Returns the
  /// ReduceScatter block this core owns, -1 for every other collective.
  ///
  /// `mpb` runs its Allreduce MPB-direct only where mpb_direct() says so;
  /// below that it takes the balanced ring, which is faster there on the
  /// paper's 6x4 mesh (68 us against 155 us at n=1).
  sim::Task<int> run(Collective c, std::span<const double> in,
                     std::span<double> out, int root = 0,
                     std::span<const std::size_t> counts = {});

  /// Non-blocking call on the progress engine (nbc_supported collectives,
  /// stack_based variants, nbc_lanes > 0).
  [[nodiscard]] coll::nbc::CollRequest start(Collective c,
                                             std::span<const double> in,
                                             std::span<double> out,
                                             int root = 0);

  [[nodiscard]] coll::nbc::ProgressEngine& engine() {
    SCC_EXPECTS(engine_.has_value());
    return *engine_;
  }

 private:
  [[nodiscard]] coll::Algo algo(coll::CollKind kind) const {
    return algo_.value_or(coll::paper_algo(kind));
  }

  coll::Stack stack_;
  coll::MpbAllreduce mpb_;
  std::optional<rckmpi::Mpi> mpi_;
  std::optional<coll::nbc::ProgressEngine> engine_;
  PaperVariant variant_;
  coll::SplitPolicy split_;
  std::optional<coll::Algo> algo_;
};

/// One collective's buffers on all p cores, checked against the serial
/// reference: in[r] and out[r] are core r's (Broadcast: every out[r] must
/// equal in[root]). ReduceScatter checks core r's owned[r] block of the
/// `split` layout; Allgatherv uses the per-core `counts`.
struct ReferenceCheck {
  Collective collective = Collective::kAllreduce;
  std::size_t elements = 0;
  int root = 0;
  std::span<const std::span<const double>> in;
  std::span<const std::span<const double>> out;
  std::span<const int> owned = {};
  coll::SplitPolicy split = coll::SplitPolicy::kStandard;
  std::span<const std::size_t> counts = {};
};

/// nullopt when every core's output matches (allocating nothing, except
/// ReduceScatter's block list), else "core R element I: got X want Y" for
/// the first mismatch. Integer-valued inputs make every reduction order
/// agree bit-for-bit with the serial sum.
[[nodiscard]] std::optional<std::string> check_outputs(
    const ReferenceCheck& check);

}  // namespace scc::harness
