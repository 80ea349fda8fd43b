#include "rcce/rcce.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "machine/scc_machine.hpp"
#include "rcce/layout.hpp"

namespace scc::rcce {
namespace {

machine::SccConfig small_config() {
  machine::SccConfig config;
  config.tiles_x = 2;
  config.tiles_y = 2;  // 8 cores
  return config;
}

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 13 + static_cast<std::size_t>(seed)) & 0xFF);
  return v;
}

TEST(Layout, GeometryAccounting) {
  const Layout layout(48);
  EXPECT_EQ(layout.payload_offset(), 48u * 32u);
  EXPECT_EQ(layout.payload_bytes(), 8192u - 1536u);
  EXPECT_EQ(layout.chunk_bytes(), 6656u);
  EXPECT_EQ(layout.flags_needed(), 2 * 48 + 18);
}

TEST(Layout, PaperVectorsFitOneChunk) {
  const Layout layout(48);
  // The Fig. 9 sweep tops out at 700 doubles = 5600 bytes.
  EXPECT_GE(layout.chunk_bytes(), 700u * sizeof(double));
}

/// Every flag index `layout` hands out at `core`, in no particular order.
std::vector<int> all_flag_indices(const Layout& layout, int core) {
  std::vector<int> indices;
  for (int from = 0; from < layout.num_cores(); ++from) {
    indices.push_back(layout.sent_flag(core, from).index);
    indices.push_back(layout.ready_flag(core, from).index);
  }
  for (int round = 0; round < Layout::kBarrierRounds; ++round) {
    indices.push_back(layout.barrier_flag(core, round).index);
  }
  for (int buf = 0; buf < Layout::kMpbBuffers; ++buf) {
    indices.push_back(layout.mpb_filled_flag(core, buf).index);
    indices.push_back(layout.mpb_free_flag(core, buf).index);
  }
  return indices;
}

TEST(Layout, FlagRefsDisjoint) {
  const Layout layout(8);
  EXPECT_NE(layout.sent_flag(1, 2).index, layout.ready_flag(1, 2).index);
  EXPECT_NE(layout.sent_flag(1, 2).index, layout.sent_flag(1, 3).index);
  EXPECT_NE(layout.barrier_flag(0, 0).index, layout.ready_flag(0, 7).index);
  EXPECT_NE(layout.mpb_filled_flag(0, 0).index,
            layout.mpb_free_flag(0, 0).index);

  // Lane L of N owns exactly the flags [L*F, (L+1)*F), F being the plain
  // layout's flags_needed(), and a payload cut no other lane touches.
  for (const int p : {2, 5, 48, 255}) {
    const int f = Layout(p).flags_needed();
    for (const int lanes : {1, 2, 4}) {
      // A lane needs at least one payload line (255 cores leave one line).
      const std::size_t payload =
          mem::kMpbBytesPerCore - Layout(p).payload_offset();
      if (payload / static_cast<std::size_t>(lanes) < mem::kCacheLineBytes) {
        EXPECT_DEATH((void)Layout::lane(p, lanes - 1, lanes), "precondition");
        continue;
      }
      std::size_t cut_end = Layout(p).payload_offset();
      for (int which = 0; which < lanes; ++which) {
        SCOPED_TRACE(::testing::Message()
                     << "p=" << p << " lane " << which << " of " << lanes);
        const Layout lane = Layout::lane(p, which, lanes);
        std::vector<int> indices = all_flag_indices(lane, p - 1);
        std::sort(indices.begin(), indices.end());
        std::vector<int> owned(static_cast<std::size_t>(f));
        std::iota(owned.begin(), owned.end(), which * f);
        EXPECT_EQ(indices, owned);
        EXPECT_EQ(lane.flags_needed(), (which + 1) * f);
        EXPECT_GE(lane.payload_offset(), cut_end);
        cut_end = lane.payload_offset() + lane.payload_bytes();
        EXPECT_LE(cut_end, mem::kMpbBytesPerCore);
      }
    }
  }
}

sim::Task<> sender(machine::CoreApi& api, const Layout* layout,
                   const std::vector<std::byte>* data, int dest) {
  Rcce rcce(api, *layout);
  co_await rcce.send(*data, dest);
}

sim::Task<> receiver(machine::CoreApi& api, const Layout* layout,
                     std::vector<std::byte>* data, int src) {
  Rcce rcce(api, *layout);
  co_await rcce.recv(*data, src);
}

class SendRecvSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SendRecvSize, DataArrivesIntact) {
  machine::SccMachine machine(small_config());
  const Layout layout(machine.num_cores());
  const auto data = pattern(GetParam(), 42);
  std::vector<std::byte> received(GetParam());
  machine.launch(0, sender(machine.core(0), &layout, &data, 5));
  machine.launch(5, receiver(machine.core(5), &layout, &received, 0));
  machine.run();
  EXPECT_EQ(received, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SendRecvSize,
                         ::testing::Values(0, 1, 8, 31, 32, 33, 100, 4096,
                                           6656,    // exactly one chunk
                                           6657,    // chunk + 1 byte
                                           20000),  // multiple chunks
                         [](const auto& param_info) {
                           return "bytes_" + std::to_string(param_info.param);
                         });

sim::Task<> exchange_all(machine::CoreApi& api, const Layout* layout,
                         std::vector<std::byte>* in,
                         std::vector<std::byte>* out) {
  // Odd-even ordered neighbour exchange in a ring: classic deadlock-free
  // blocking pattern (paper Fig. 4).
  Rcce rcce(api, *layout);
  const int p = rcce.num_cores();
  const int right = (rcce.rank() + 1) % p;
  const int left = (rcce.rank() + p - 1) % p;
  if (rcce.rank() % 2 == 1) {
    co_await rcce.recv(*out, left);
    co_await rcce.send(*in, right);
  } else {
    co_await rcce.send(*in, right);
    co_await rcce.recv(*out, left);
  }
}

TEST(Rcce, OddEvenRingExchangeCompletes) {
  machine::SccMachine machine(small_config());
  const int p = machine.num_cores();
  const Layout layout(p);
  std::vector<std::vector<std::byte>> in, out;
  for (int r = 0; r < p; ++r) {
    in.push_back(pattern(200, r));
    out.emplace_back(200);
  }
  for (int r = 0; r < p; ++r) {
    machine.launch(r, exchange_all(machine.core(r), &layout,
                                   &in[static_cast<std::size_t>(r)],
                                   &out[static_cast<std::size_t>(r)]));
  }
  machine.run();
  for (int r = 0; r < p; ++r) {
    const int left = (r + p - 1) % p;
    EXPECT_EQ(out[static_cast<std::size_t>(r)],
              in[static_cast<std::size_t>(left)]);
  }
}

sim::Task<> naive_ring_send_first(machine::CoreApi& api, const Layout* layout,
                                  std::vector<std::byte>* in,
                                  std::vector<std::byte>* out) {
  // EVERY core sends first: with blocking primitives this must deadlock
  // (the motivation for the odd-even ordering).
  Rcce rcce(api, *layout);
  const int p = rcce.num_cores();
  co_await rcce.send(*in, (rcce.rank() + 1) % p);
  co_await rcce.recv(*out, (rcce.rank() + p - 1) % p);
}

TEST(Rcce, AllSendFirstRingDeadlocks) {
  machine::SccMachine machine(small_config());
  const int p = machine.num_cores();
  const Layout layout(p);
  std::vector<std::vector<std::byte>> in(static_cast<std::size_t>(p),
                                         pattern(64, 1)),
      out(static_cast<std::size_t>(p), std::vector<std::byte>(64));
  for (int r = 0; r < p; ++r) {
    machine.launch(r, naive_ring_send_first(machine.core(r), &layout,
                                            &in[static_cast<std::size_t>(r)],
                                            &out[static_cast<std::size_t>(r)]));
  }
  EXPECT_FALSE(machine.run_detect_deadlock());
}

sim::Task<> barrier_n_times(machine::CoreApi& api, const Layout* layout,
                            int times, SimTime* finish) {
  Rcce rcce(api, *layout);
  for (int i = 0; i < times; ++i) co_await rcce.barrier();
  *finish = api.now();
}

TEST(Rcce, RepeatedBarriersStayAligned) {
  machine::SccMachine machine(small_config());
  const int p = machine.num_cores();
  const Layout layout(p);
  std::vector<SimTime> finish(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    machine.launch(r, barrier_n_times(machine.core(r), &layout, 300,
                                      &finish[static_cast<std::size_t>(r)]));
  }
  machine.run();  // 300 barriers exercise the epoch wrap (mod 255)
  SUCCEED();
}

TEST(Rcce, PartialLineMessagesCostMore) {
  // The period-4 spike mechanism: 5 doubles need an extra transfer call
  // compared to 4 doubles even though only one extra line moves.
  const auto latency_for = [](std::size_t bytes) {
    machine::SccMachine machine(small_config());
    const Layout layout(machine.num_cores());
    std::vector<std::byte> data = pattern(bytes, 1);
    std::vector<std::byte> sink(bytes);
    machine.launch(0, sender(machine.core(0), &layout, &data, 5));
    machine.launch(5, receiver(machine.core(5), &layout, &sink, 0));
    machine.run();
    return machine.engine().now();
  };
  const SimTime full_line = latency_for(4 * sizeof(double));
  const SimTime spill = latency_for(5 * sizeof(double));
  const SimTime next_full = latency_for(8 * sizeof(double));
  EXPECT_GT(spill, full_line);
  // The spilled message is even more expensive than the next full line
  // because of the extra internal call on both sides.
  EXPECT_GT(spill, next_full);
}

}  // namespace
}  // namespace scc::rcce
