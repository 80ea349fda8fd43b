#include "coll/mpb_allreduce.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/aligned.hpp"

namespace scc::coll {

namespace {

/// Sequence values cycle through 1..255; 0 is reserved as the flags' reset
/// state so a wait can never be satisfied by a never-written flag.
std::uint8_t next_seq(std::uint8_t& counter) {
  counter = static_cast<std::uint8_t>(counter % 255 + 1);
  return counter;
}

void vec_to_window(std::span<const double> in, std::span<std::byte> window) {
  std::memcpy(window.data(), in.data(), in.size_bytes());
}

}  // namespace

MpbAllreduce::BufferGeometry MpbAllreduce::geometry(
    const std::vector<Block>& blocks) const {
  BufferGeometry g;
  for (const Block& b : blocks) g.max_block = std::max(g.max_block, b.count);
  const std::size_t raw = g.max_block * sizeof(double);
  g.buf_bytes = (raw + mem::kCacheLineBytes - 1) / mem::kCacheLineBytes *
                mem::kCacheLineBytes;
  SCC_EXPECTS(2 * g.buf_bytes <= layout_->payload_bytes());
  return g;
}

sim::Task<> MpbAllreduce::acquire_local_buffer(int buf) {
  if (writes_[static_cast<std::size_t>(buf)]++ == 0) co_return;
  const auto expected = next_seq(free_in_[static_cast<std::size_t>(buf)]);
  co_await api_->flag_wait(layout_->mpb_free_flag(api_->rank(), buf),
                           expected);
}

sim::Task<> MpbAllreduce::publish_filled(int buf) {
  const int right = (api_->rank() + 1) % layout_->num_cores();
  const auto seq = next_seq(filled_out_[static_cast<std::size_t>(buf)]);
  co_await api_->flag_set(layout_->mpb_filled_flag(right, buf), seq);
}

sim::Task<> MpbAllreduce::await_remote_filled(int buf) {
  const auto expected = next_seq(filled_in_[static_cast<std::size_t>(buf)]);
  co_await api_->flag_wait(layout_->mpb_filled_flag(api_->rank(), buf),
                           expected);
}

sim::Task<> MpbAllreduce::release_remote_buffer(int buf) {
  const int p = layout_->num_cores();
  const int left = (api_->rank() + p - 1) % p;
  const auto seq = next_seq(free_out_[static_cast<std::size_t>(buf)]);
  co_await api_->flag_set(layout_->mpb_free_flag(left, buf), seq);
}

sim::Task<> MpbAllreduce::run(std::span<const double> in,
                              std::span<double> out, rcce::ReduceOp op,
                              SplitPolicy policy) {
  auto& api = *api_;
  const int p = layout_->num_cores();
  const int rank = api.rank();
  const int left = (rank + p - 1) % p;
  SCC_EXPECTS(in.size() == out.size());
  co_await api.overhead(api.cost().sw.coll_call);
  if (p == 1) {
    std::copy(in.begin(), in.end(), out.begin());
    co_await api.priv_read(in.data(), in.size_bytes());
    co_await api.priv_write(out.data(), out.size_bytes());
    co_return;
  }
  const auto blocks = split_blocks(in.size(), p, policy);
  const BufferGeometry g = geometry(blocks);
  if (scratch_.size() < g.max_block) scratch_.resize(g.max_block);
  std::span<double> scratch(scratch_.data(), g.max_block);

  // --- prime: stage my block `rank` into local buffer 0 -----------------
  {
    co_await api.overhead(api.cost().sw.coll_round);
    const Block& b = blocks[static_cast<std::size_t>(rank)];
    co_await acquire_local_buffer(0);
    co_await api.priv_read(in.data() + b.offset, b.count * sizeof(double));
    co_await api.mpb_charge(rank, b.count * sizeof(double), /*is_read=*/false);
    vec_to_window(in.subspan(b.offset, b.count),
                  api.mpb_window(buf_addr(rank, 0, g), b.count * sizeof(double)));
    co_await publish_filled(0);
  }

  // --- ReduceScatter rounds (Fig. 8) -------------------------------------
  for (int round = 1; round <= p - 1; ++round) {
    co_await api.overhead(api.cost().sw.coll_round + api.cost().sw.mpb_round);
    const int cur = round % 2;
    const int prev = (round - 1) % 2;
    const Block& b = blocks[static_cast<std::size_t>((rank - round + p) % p)];
    co_await await_remote_filled(prev);
    co_await acquire_local_buffer(cur);
    // Operand 1 streams straight from the left neighbour's MPB, word by
    // word into the FP pipeline (no optimized burst memcpy on this path).
    co_await api.mpb_word_get(
        buf_addr(left, prev, g),
        std::as_writable_bytes(std::span<double>(scratch.data(), b.count)));
    // ... operand 2 is the local input vector's block ...
    co_await api.priv_read(in.data() + b.offset, b.count * sizeof(double));
    {
      std::span<double> acc(scratch.data(), b.count);
      std::span<const double> local = in.subspan(b.offset, b.count);
      switch (op) {
        case rcce::ReduceOp::kSum:
          for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += local[i];
          break;
        case rcce::ReduceOp::kMax:
          for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] = std::max(acc[i], local[i]);
          break;
        case rcce::ReduceOp::kMin:
          for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] = std::min(acc[i], local[i]);
          break;
        case rcce::ReduceOp::kProd:
          for (std::size_t i = 0; i < acc.size(); ++i) acc[i] *= local[i];
          break;
      }
    }
    co_await api.compute(b.count * api.cost().sw.reduce_cycles_per_element);
    // ... and the result lands directly in the local MPB, word by word
    // (the expensive step while the arbiter-bug workaround is active).
    co_await api.mpb_word_charge(rank, b.count * sizeof(double),
                                 /*is_read=*/false);
    vec_to_window(std::span<const double>(scratch.data(), b.count),
                  api.mpb_window(buf_addr(rank, cur, g),
                                 b.count * sizeof(double)));
    if (round == p - 1) {
      // Final round: this is my fully-reduced block; also store it into the
      // private result vector.
      co_await api.priv_write(out.data() + b.offset, b.count * sizeof(double));
      std::copy_n(scratch.data(), b.count, out.data() + b.offset);
    }
    co_await release_remote_buffer(prev);
    co_await publish_filled(cur);
  }

  // --- Allgather rounds: forward reduced blocks through the MPBs ---------
  for (int round = 1; round <= p - 1; ++round) {
    co_await api.overhead(api.cost().sw.coll_round + api.cost().sw.mpb_round);
    const int g_round = p - 1 + round;
    const int cur = g_round % 2;
    const int prev = (g_round - 1) % 2;
    const Block& b =
        blocks[static_cast<std::size_t>(((rank - round + 1) % p + p) % p)];
    co_await await_remote_filled(prev);
    co_await api.mpb_word_get(
        buf_addr(left, prev, g),
        std::as_writable_bytes(std::span<double>(scratch.data(), b.count)));
    co_await api.priv_write(out.data() + b.offset, b.count * sizeof(double));
    std::copy_n(scratch.data(), b.count, out.data() + b.offset);
    if (round < p - 1) {
      co_await acquire_local_buffer(cur);
      co_await api.mpb_word_charge(rank, b.count * sizeof(double),
                                   /*is_read=*/false);
      vec_to_window(std::span<const double>(scratch.data(), b.count),
                    api.mpb_window(buf_addr(rank, cur, g),
                                   b.count * sizeof(double)));
      co_await publish_filled(cur);
    }
    co_await release_remote_buffer(prev);
  }
}

}  // namespace scc::coll
