#include "harness/comm.hpp"

#include <algorithm>
#include <vector>

#include "coll/collectives.hpp"
#include "common/string_util.hpp"

namespace scc::harness {

CommLayout::CommLayout(machine::SccConfig& config, PaperVariant variant,
                       int nbc_lanes)
    : layout_(config.num_cores()) {
  int flags = layout_.flags_needed();
  if (variant == PaperVariant::kRckmpi) {
    flags = channel_.emplace(layout_).flags_needed();
  }
  if (nbc_lanes > 0) {
    // The widest lane's flag range bounds the engine's whole flag use.
    flags = std::max(flags, rcce::Layout::lane(config.num_cores(),
                                               nbc_lanes - 1, nbc_lanes)
                                .flags_needed());
  }
  config.flags_per_core = std::max(config.flags_per_core, flags);
}

Comm::Comm(machine::CoreApi& api, const CommLayout& layout,
           PaperVariant variant, coll::SplitPolicy split,
           std::optional<coll::Algo> algo, int nbc_lanes)
    : stack_(api, layout.layout(), prims_of(variant)),
      mpb_(api, layout.layout()),
      variant_(variant),
      split_(split),
      algo_(algo) {
  if (variant == PaperVariant::kRckmpi) {
    SCC_EXPECTS(layout.channel() != nullptr);
    mpi_.emplace(api, *layout.channel());
  }
  if (nbc_lanes > 0) engine_.emplace(api, prims_of(variant), nbc_lanes);
}

sim::Task<int> Comm::run(Collective c, std::span<const double> in,
                         std::span<double> out, int root,
                         std::span<const std::size_t> counts) {
  constexpr auto kSum = coll::ReduceOp::kSum;
  if (mpi_) {
    switch (c) {
      case Collective::kAllgather: co_await mpi_->allgather(in, out); break;
      case Collective::kAlltoall: co_await mpi_->alltoall(in, out); break;
      case Collective::kReduceScatter:
        co_return co_await mpi_->reduce_scatter(in, out, kSum);
      case Collective::kBroadcast: co_await mpi_->bcast(out, root); break;
      case Collective::kReduce:
        co_await mpi_->reduce(in, out, kSum, root);
        break;
      case Collective::kAllreduce:
        co_await mpi_->allreduce(in, out, kSum);
        break;
      default: SCC_ASSERT(false);  // not in variants_for() for rckmpi
    }
    co_return -1;
  }
  switch (c) {
    case Collective::kAllgather:
      co_await coll::allgather(stack_, in, out,
                               algo(coll::CollKind::kAllgather));
      co_return -1;
    case Collective::kAlltoall:
      co_await coll::alltoall(stack_, in, out,
                              algo(coll::CollKind::kAlltoall));
      co_return -1;
    case Collective::kReduceScatter:
      co_return co_await coll::reduce_scatter(
          stack_, in, out, kSum, split_,
          algo(coll::CollKind::kReduceScatter));
    case Collective::kBroadcast:
      co_await coll::broadcast(stack_, out, root, split_);
      co_return -1;
    case Collective::kReduce:
      co_await coll::reduce(stack_, in, out, kSum, root, split_);
      co_return -1;
    case Collective::kAllreduce:
      if (mpb_direct(variant_, in.size(), stack_.num_cores())) {
        co_await mpb_.run(in, out, kSum, split_);
      } else {
        co_await coll::allreduce(stack_, in, out, kSum, split_,
                                 algo(coll::CollKind::kAllreduce));
      }
      co_return -1;
    case Collective::kScatter:
      co_await coll::scatter(stack_, in, out, root);
      co_return -1;
    case Collective::kGather:
      co_await coll::gather(stack_, in, out, root);
      co_return -1;
    case Collective::kAllgatherv:
      co_await coll::allgatherv(stack_, in, counts, out);
      co_return -1;
  }
  co_return -1;
}

coll::nbc::CollRequest Comm::start(Collective c, std::span<const double> in,
                                   std::span<double> out, int root) {
  SCC_EXPECTS(engine_.has_value());
  switch (c) {
    case Collective::kAllgather:
      return engine_->iallgather(in, out, algo(coll::CollKind::kAllgather));
    case Collective::kAlltoall:
      return engine_->ialltoall(in, out, algo(coll::CollKind::kAlltoall));
    case Collective::kBroadcast:
      return engine_->ibcast(out, root, split_);
    case Collective::kAllreduce:
      return engine_->iallreduce(in, out, coll::ReduceOp::kSum, split_,
                                 algo(coll::CollKind::kAllreduce));
    default:
      SCC_ASSERT(false);  // nbc_supported() is checked up front
      return {};
  }
}

std::optional<std::string> check_outputs(const ReferenceCheck& check) {
  const Collective c = check.collective;
  const std::size_t n = check.elements;
  const std::size_t p = check.out.size();
  const auto root = static_cast<std::size_t>(check.root);
  const auto mismatch = [&](std::size_t r, std::size_t e, double want) {
    return strprintf("core %zu element %zu: got %.17g want %.17g", r, e,
                     check.out[r][e], want);
  };
  if (c == Collective::kReduce || c == Collective::kAllreduce ||
      c == Collective::kReduceScatter) {
    std::vector<coll::Block> blocks;
    if (c == Collective::kReduceScatter) {
      blocks = coll::split_blocks(n, static_cast<int>(p), check.split);
      for (std::size_t r = 0; r < p; ++r) {
        if (check.owned[r] < 0 || check.owned[r] >= static_cast<int>(p))
          return strprintf("core %zu owns no ReduceScatter block", r);
      }
    }
    for (std::size_t e = 0; e < n; ++e) {
      double want = 0.0;
      for (const std::span<const double> in : check.in) want += in[e];
      for (std::size_t r = 0; r < p; ++r) {
        bool checked = c == Collective::kAllreduce || r == root;
        if (c == Collective::kReduceScatter) {
          const coll::Block& b =
              blocks[static_cast<std::size_t>(check.owned[r])];
          checked = e >= b.offset && e < b.offset + b.count;
        }
        if (checked && check.out[r][e] != want) return mismatch(r, e, want);
      }
    }
    return std::nullopt;
  }
  // Data movement: every element of a checked output is a copy of one input
  // element.
  for (std::size_t r = 0; r < p; ++r) {
    if (c == Collective::kGather && r != root) continue;
    std::size_t src = 0, offset = 0;  // Allgatherv: the block e lies in
    for (std::size_t e = 0; e < check.out[r].size(); ++e) {
      double want = 0.0;
      switch (c) {
        case Collective::kBroadcast: want = check.in[root][e]; break;
        case Collective::kScatter: want = check.in[root][r * n + e]; break;
        case Collective::kAlltoall:
          want = check.in[e / n][r * n + e % n];
          break;
        case Collective::kAllgatherv:
          while (e >= offset + check.counts[src]) {
            offset += check.counts[src++];
          }
          want = check.in[src][e - offset];
          break;
        default: want = check.in[e / n][e % n];  // allgather, gather
      }
      if (check.out[r][e] != want) return mismatch(r, e, want);
    }
  }
  return std::nullopt;
}

}  // namespace scc::harness
