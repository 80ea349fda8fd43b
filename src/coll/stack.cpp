#include "coll/stack.hpp"

#include <numeric>

#include "rcce/protocol.hpp"

namespace scc::coll {

sim::Task<> Stack::coop_wait_lwnb(bool pending_recv, bool pending_send) {
  auto& api = rcce_.api();
  for (;;) {
    if (pending_recv && co_await lwnb_->test_recv()) pending_recv = false;
    if (pending_send && co_await lwnb_->test_send()) pending_send = false;
    if (!pending_recv && !pending_send) co_return;
    co_await api.charge(
        machine::Phase::kFlagWait,
        mem::HwCostModel::core_clock().cycles(rcce::kPollCycles));
    co_await round_gate();
  }
}

sim::Task<> Stack::exchange(std::span<const std::byte> sbuf, int dest,
                            std::span<std::byte> rbuf, int src) {
  if (prims_ == Prims::kBlocking) {
    // Odd-even ordering (paper Fig. 4): odd IDs receive first.
    if (rank() % 2 == 1) {
      co_await rcce_.recv(rbuf, src);
      co_await rcce_.send(sbuf, dest);
    } else {
      co_await rcce_.send(sbuf, dest);
      co_await rcce_.recv(rbuf, src);
    }
    co_return;
  }
  co_await lwnb_->isend(sbuf, dest);
  co_await lwnb_->irecv(rbuf, src);
  // Posted-but-not-completed is the overlap window the non-blocking layers
  // exist for: under a progress engine, yield here so other in-flight
  // schedules advance while the peer drains the post.
  co_await round_gate();
  // Cooperative single-chunk completion polls-and-yields so the other lanes
  // of a multi-lane engine keep advancing; oversized messages fall back to
  // wait_both's interleaved blocking path, which cannot yield mid-message.
  if (cooperative() && sbuf.size() <= layout().chunk_bytes() &&
      rbuf.size() <= layout().chunk_bytes()) {
    co_await coop_wait_lwnb(true, true);
  } else {
    co_await lwnb_->wait_both();
  }
}

sim::Task<> Stack::exchange_pair(std::span<const std::byte> sbuf,
                                 std::span<std::byte> rbuf, int partner) {
  if (prims_ != Prims::kBlocking) {
    co_await exchange(sbuf, partner, rbuf, partner);
    co_return;
  }
  if (rank() < partner) {
    co_await rcce_.send(sbuf, partner);
    co_await rcce_.recv(rbuf, partner);
  } else {
    co_await rcce_.recv(rbuf, partner);
    co_await rcce_.send(sbuf, partner);
  }
}

sim::Task<> Stack::exchange_shift(std::span<const std::byte> sbuf,
                                  std::span<std::byte> rbuf, int dist) {
  const int p = num_cores();
  const int d = (dist % p + p) % p;
  SCC_EXPECTS(d != 0);
  const int dest = (rank() + d) % p;
  const int src = (rank() - d + p) % p;
  // Odd-even ordering is safe exactly when dest and src always differ in
  // parity from rank (p even, d odd); exchange() also covers all
  // non-blocking layers.
  if (prims_ != Prims::kBlocking || (p % 2 == 0 && d % 2 == 1)) {
    co_await exchange(sbuf, dest, rbuf, src);
    co_return;
  }
  // Cycle-breaker ordering (see stack.hpp): the minimum of each shift
  // cycle -- the congruence class mod gcd(p, d) -- receives first.
  if (rank() < std::gcd(p, d)) {
    co_await rcce_.recv(rbuf, src);
    co_await rcce_.send(sbuf, dest);
  } else {
    co_await rcce_.send(sbuf, dest);
    co_await rcce_.recv(rbuf, src);
  }
}

sim::Task<> Stack::send(std::span<const std::byte> data, int dest) {
  if (prims_ == Prims::kBlocking) {
    co_await rcce_.send(data, dest);
    co_return;
  }
  co_await lwnb_->isend(data, dest);
  co_await round_gate();
  if (cooperative() && data.size() <= layout().chunk_bytes()) {
    co_await coop_wait_lwnb(false, true);
  } else {
    co_await lwnb_->wait_send();
  }
}

sim::Task<> Stack::recv(std::span<std::byte> data, int src) {
  if (prims_ == Prims::kBlocking) {
    co_await rcce_.recv(data, src);
    co_return;
  }
  co_await lwnb_->irecv(data, src);
  co_await round_gate();
  if (cooperative() && data.size() <= layout().chunk_bytes()) {
    co_await coop_wait_lwnb(true, false);
  } else {
    co_await lwnb_->wait_recv();
  }
}

}  // namespace scc::coll
