#include "rcce/rcce.hpp"

#include <algorithm>

#include "rcce/protocol.hpp"

namespace scc::rcce {

sim::Task<> Rcce::send(std::span<const std::byte> data, int dest) {
  SCC_EXPECTS(dest >= 0 && dest < num_cores());
  SCC_EXPECTS(dest != rank());
  co_await api_->overhead(mem::sw::rcce_send_call);
  co_await api_->wait_poll(mem::sw::rcce_wait_until_poll,
                           mem::sw::rcce_send_call);
  const std::size_t chunk_bytes = layout_->chunk_bytes();
  std::size_t done = 0;
  do {
    const std::size_t len = std::min(chunk_bytes, data.size() - done);
    co_await stage_and_signal(*api_, *layout_, data.subspan(done, len), dest);
    co_await await_ack(*api_, *layout_, dest);
    done += len;
  } while (done < data.size());
}

sim::Task<> Rcce::recv(std::span<std::byte> data, int src) {
  SCC_EXPECTS(src >= 0 && src < num_cores());
  SCC_EXPECTS(src != rank());
  co_await api_->overhead(mem::sw::rcce_recv_call);
  co_await api_->wait_poll(mem::sw::rcce_wait_until_poll,
                           mem::sw::rcce_recv_call);
  const std::size_t chunk_bytes = layout_->chunk_bytes();
  std::size_t done = 0;
  do {
    const std::size_t len = std::min(chunk_bytes, data.size() - done);
    co_await await_and_fetch(*api_, *layout_, data.subspan(done, len), src);
    co_await ack_sender(*api_, *layout_, src);
    done += len;
  } while (done < data.size());
}

sim::Task<> Rcce::barrier() {
  const int p = num_cores();
  const int self = rank();
  // Per-object epoch distinguishes consecutive barriers; wraps inside the
  // 8-bit flag range, skipping the initial value 0.
  barrier_epoch_ = static_cast<std::uint8_t>(barrier_epoch_ % 255 + 1);
  for (int dist = 1; dist < p; dist *= 2) {
    const int round = [&] {
      int r = 0;
      for (int d = 1; d < dist; d *= 2) ++r;
      return r;
    }();
    const int partner = (self + dist) % p;
    co_await api_->flag_set(layout_->barrier_flag(partner, round),
                            barrier_epoch_);
    co_await api_->flag_wait(layout_->barrier_flag(self, round),
                             barrier_epoch_);
  }
}

void reduce_into(std::span<double> acc, std::span<const double> value,
                 ReduceOp op) {
  SCC_EXPECTS(value.size() == acc.size());
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += value[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::max(acc[i], value[i]);
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = std::min(acc[i], value[i]);
      break;
    case ReduceOp::kProd:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] *= value[i];
      break;
  }
}

sim::Task<> apply_reduce(machine::CoreApi& api, std::span<const double> value,
                         std::span<double> acc, ReduceOp op) {
  SCC_EXPECTS(value.size() == acc.size());
  if (value.empty()) co_return;
  co_await api.priv_read(value.data(), value.size_bytes());
  co_await api.priv_read(acc.data(), acc.size_bytes());
  reduce_into(acc, value, op);
  co_await api.compute(value.size() * mem::sw::reduce_cycles_per_element);
  co_await api.priv_write(acc.data(), acc.size_bytes());
}

}  // namespace scc::rcce
