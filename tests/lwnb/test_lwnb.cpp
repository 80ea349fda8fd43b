#include "lwnb/lwnb.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "coll/stack.hpp"
#include "machine/scc_machine.hpp"

namespace scc::lwnb {
namespace {

machine::SccConfig small_config() {
  machine::SccConfig config;
  config.tiles_x = 2;
  config.tiles_y = 2;
  return config;
}

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 11 + static_cast<std::size_t>(seed)) & 0xFF);
  return v;
}

/// The engine at the lightweight rung's per-call cost.
Lwnb lightweight(rcce::Rcce& rcce) {
  return Lwnb(rcce, mem::sw::lwnb_issue, mem::sw::lwnb_complete);
}

sim::Task<> send_side(machine::CoreApi& api, const rcce::Layout* layout,
                      const std::vector<std::byte>* data, int dest,
                      std::uint64_t delay_cycles = 0) {
  rcce::Rcce rcce(api, *layout);
  Lwnb lwnb = lightweight(rcce);
  if (delay_cycles > 0) co_await api.compute(delay_cycles);
  EXPECT_FALSE(lwnb.send_pending());
  co_await lwnb.isend(*data, dest);
  EXPECT_TRUE(lwnb.send_pending());
  co_await lwnb.wait_send();
  EXPECT_FALSE(lwnb.send_pending());
}

sim::Task<> recv_side(machine::CoreApi& api, const rcce::Layout* layout,
                      std::vector<std::byte>* data, int src,
                      std::uint64_t delay_cycles = 0) {
  rcce::Rcce rcce(api, *layout);
  Lwnb lwnb = lightweight(rcce);
  if (delay_cycles > 0) co_await api.compute(delay_cycles);
  co_await lwnb.irecv(*data, src);
  EXPECT_TRUE(lwnb.recv_pending());
  co_await lwnb.wait_recv();
  EXPECT_FALSE(lwnb.recv_pending());
}

TEST(Lwnb, BasicTransfer) {
  machine::SccMachine machine(small_config());
  const rcce::Layout layout(machine.num_cores());
  const auto data = pattern(300, 2);
  std::vector<std::byte> received(300);
  machine.launch(0, send_side(machine.core(0), &layout, &data, 7));
  machine.launch(7, recv_side(machine.core(7), &layout, &received, 0));
  machine.run();
  EXPECT_EQ(received, data);
}

TEST(Lwnb, OversizedMessageChunks) {
  machine::SccMachine machine(small_config());
  const rcce::Layout layout(machine.num_cores());
  const auto data = pattern(14000, 6);
  std::vector<std::byte> received(14000);
  machine.launch(0, send_side(machine.core(0), &layout, &data, 1));
  machine.launch(1, recv_side(machine.core(1), &layout, &received, 0));
  machine.run();
  EXPECT_EQ(received, data);
}

sim::Task<> ring_round(machine::CoreApi& api, const rcce::Layout* layout,
                       const std::vector<std::byte>* sbuf,
                       std::vector<std::byte>* rbuf) {
  // isend + irecv + wait_both in ANY issue order: the whole point of the
  // non-blocking primitives is that no odd-even discipline is needed.
  rcce::Rcce rcce(api, *layout);
  Lwnb lwnb = lightweight(rcce);
  const int p = rcce.num_cores();
  co_await lwnb.isend(*sbuf, (rcce.rank() + 1) % p);
  co_await lwnb.irecv(*rbuf, (rcce.rank() + p - 1) % p);
  co_await lwnb.wait_both();
}

TEST(Lwnb, UnorderedRingDoesNotDeadlock) {
  machine::SccMachine machine(small_config());
  const int p = machine.num_cores();
  const rcce::Layout layout(p);
  std::vector<std::vector<std::byte>> in, out;
  for (int r = 0; r < p; ++r) {
    in.push_back(pattern(256, r));
    out.emplace_back(256);
  }
  for (int r = 0; r < p; ++r)
    machine.launch(r, ring_round(machine.core(r), &layout,
                                 &in[static_cast<std::size_t>(r)],
                                 &out[static_cast<std::size_t>(r)]));
  machine.run();
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(out[static_cast<std::size_t>(r)],
              in[static_cast<std::size_t>((r + p - 1) % p)]);
  }
}

sim::Task<> double_isend(machine::CoreApi& api, const rcce::Layout* layout) {
  rcce::Rcce rcce(api, *layout);
  Lwnb lwnb = lightweight(rcce);
  std::vector<std::byte> buf(8);
  co_await lwnb.isend(buf, 1);
  co_await lwnb.isend(buf, 2);  // must die: single-slot engine
}

TEST(LwnbDeath, SecondOutstandingSendRejected) {
  EXPECT_DEATH(
      {
        machine::SccMachine machine(small_config());
        const rcce::Layout layout(machine.num_cores());
        machine.launch(0, double_isend(machine.core(0), &layout));
        machine.run();
      },
      "precondition");
}

sim::Task<> test_recv_until_done(machine::CoreApi& api,
                                 const rcce::Layout* layout,
                                 std::vector<std::byte>* data, int src,
                                 int* failed_tests) {
  rcce::Rcce rcce(api, *layout);
  Lwnb lwnb = lightweight(rcce);
  co_await lwnb.irecv(*data, src);
  *failed_tests = 0;
  while (!co_await lwnb.test_recv()) {
    ++*failed_tests;
    co_await api.compute(500);
  }
  EXPECT_FALSE(lwnb.recv_pending());
}

TEST(Lwnb, TestRecvPollsUntilCompletion) {
  machine::SccMachine machine(small_config());
  const rcce::Layout layout(machine.num_cores());
  const auto data = pattern(64, 4);
  std::vector<std::byte> received(64);
  int failed_tests = -1;
  machine.launch(0, test_recv_until_done(machine.core(0), &layout, &received,
                                         5, &failed_tests));
  machine.launch(5, send_side(machine.core(5), &layout, &data, 0, 50000));
  machine.run();
  EXPECT_EQ(received, data);
  EXPECT_GT(failed_tests, 0);  // the sender was delayed: test_recv failed first
}

sim::Task<> test_send_until_done(machine::CoreApi& api,
                                 const rcce::Layout* layout,
                                 const std::vector<std::byte>* data, int dest,
                                 int* failed_tests) {
  rcce::Rcce rcce(api, *layout);
  Lwnb lwnb = lightweight(rcce);
  co_await lwnb.isend(*data, dest);
  *failed_tests = 0;
  while (!co_await lwnb.test_send()) {
    ++*failed_tests;
    co_await api.compute(500);
  }
  EXPECT_FALSE(lwnb.send_pending());
}

TEST(Lwnb, TestSendPollsUntilCompletion) {
  machine::SccMachine machine(small_config());
  const rcce::Layout layout(machine.num_cores());
  const auto data = pattern(64, 5);
  std::vector<std::byte> received(64);
  int failed_tests = -1;
  machine.launch(0, test_send_until_done(machine.core(0), &layout, &data, 5,
                                         &failed_tests));
  machine.launch(5, recv_side(machine.core(5), &layout, &received, 0, 50000));
  machine.run();
  EXPECT_EQ(received, data);
  EXPECT_GT(failed_tests, 0);  // the receiver was delayed: no ack at first
}

sim::Task<> stack_ring_round(machine::CoreApi& api, const rcce::Layout* layout,
                             coll::Prims prims,
                             const std::vector<std::byte>* sbuf,
                             std::vector<std::byte>* rbuf) {
  coll::Stack stack(api, *layout, prims);
  const int p = stack.num_cores();
  co_await stack.exchange(*sbuf, (stack.rank() + 1) % p, *rbuf,
                          (stack.rank() + p - 1) % p);
}

/// Core 0's software overhead for one ring exchange round through
/// coll::Stack on the given rung.
SimTime ring_round_overhead(coll::Prims prims) {
  machine::SccMachine machine(small_config());
  const int p = machine.num_cores();
  const rcce::Layout layout(p);
  std::vector<std::vector<std::byte>> in(static_cast<std::size_t>(p),
                                         pattern(96, 1)),
      out(static_cast<std::size_t>(p), std::vector<std::byte>(96));
  for (int r = 0; r < p; ++r)
    machine.launch(r, stack_ring_round(machine.core(r), &layout, prims,
                                       &in[static_cast<std::size_t>(r)],
                                       &out[static_cast<std::size_t>(r)]));
  machine.run();
  return machine.core(0).profile().get(machine::Phase::kSwOverhead);
}

TEST(Lwnb, LessSoftwareOverheadThanIrcce) {
  // Section IV-B's claim as an exact pin: both rungs run this engine, so one
  // exchange round (two issues, two completions) differs between them by
  // exactly those four charges, each converted as CoreApi::overhead does.
  const SimTime ircce = ring_round_overhead(coll::Prims::kIrcce);
  const SimTime lw = ring_round_overhead(coll::Prims::kLightweight);
  machine::SccMachine machine(small_config());
  namespace sw = mem::sw;
  const auto calls = [&](std::uint32_t issue, std::uint32_t complete) {
    return (machine.latency().core_cycles(issue, 0) +
            machine.latency().core_cycles(complete, 0)) *
           2;
  };
  EXPECT_EQ((ircce + calls(sw::lwnb_issue, sw::lwnb_complete)).femtoseconds(),
            (lw + calls(sw::ircce_issue, sw::ircce_complete)).femtoseconds());
  EXPECT_LT(lw, ircce);
}

}  // namespace
}  // namespace scc::lwnb
