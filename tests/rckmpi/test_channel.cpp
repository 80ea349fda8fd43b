#include "rckmpi/channel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "machine/scc_machine.hpp"

namespace scc::rckmpi {
namespace {

struct Fixture {
  explicit Fixture(int tx = 2, int ty = 2) {
    machine::SccConfig config;
    config.tiles_x = tx;
    config.tiles_y = ty;
    base_layout = std::make_unique<rcce::Layout>(config.num_cores());
    layout = std::make_unique<ChannelLayout>(*base_layout);
    config.flags_per_core = layout->flags_needed();
    machine = std::make_unique<machine::SccMachine>(config);
  }
  std::unique_ptr<rcce::Layout> base_layout;
  std::unique_ptr<ChannelLayout> layout;
  std::unique_ptr<machine::SccMachine> machine;
};

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 5 + static_cast<std::size_t>(seed)) & 0xFF);
  return v;
}

TEST(ChannelLayout, GeometrySane) {
  const rcce::Layout base(48);
  const ChannelLayout layout(base);
  EXPECT_GE(layout.ring_lines(), 2u);
  EXPECT_LE(layout.ring_lines(), 64u);
  // 48 rings of ring_bytes each must fit in the payload.
  EXPECT_LE(48u * layout.ring_bytes(), base.payload_bytes());
  EXPECT_GT(layout.flags_needed(), base.flags_needed());
}

TEST(ChannelLayout, RingLinesWrapInPlace) {
  const rcce::Layout base(8);
  const ChannelLayout layout(base);
  const auto a = layout.ring_line(0, 1, 0);
  const auto b = layout.ring_line(0, 1, layout.ring_lines());
  EXPECT_EQ(a.core, b.core);
  EXPECT_EQ(a.offset, b.offset);  // wraps modulo ring size
}

sim::Task<> chan_send(machine::CoreApi& api, const ChannelLayout* layout,
                      const std::vector<std::byte>* data, int dest, int tag) {
  Channel channel(api, *layout);
  co_await channel.send(*data, dest, tag);
}

sim::Task<> chan_recv(machine::CoreApi& api, const ChannelLayout* layout,
                      std::vector<std::byte>* data, int src, int tag) {
  Channel channel(api, *layout);
  co_await channel.recv(*data, src, tag);
}

class ChannelSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChannelSize, TransfersIntact) {
  Fixture f;
  const auto data = pattern(GetParam(), 7);
  std::vector<std::byte> received(GetParam());
  f.machine->launch(0, chan_send(f.machine->core(0), f.layout.get(), &data, 5, 42));
  f.machine->launch(5, chan_recv(f.machine->core(5), f.layout.get(), &received, 0, 42));
  f.machine->run();
  EXPECT_EQ(received, data);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ChannelSize,
    // Zero bytes, sub-line, exact lines, many times the ring capacity.
    ::testing::Values(0, 1, 31, 32, 33, 100, 1000, 5600, 50000),
    [](const auto& param_info) { return "bytes_" + std::to_string(param_info.param); });

TEST(ChannelDeath, TagMismatchDetected) {
  EXPECT_DEATH(
      {
        Fixture f;
        const auto data = pattern(64, 1);
        std::vector<std::byte> received(64);
        f.machine->launch(0, chan_send(f.machine->core(0), f.layout.get(),
                                       &data, 1, 9));
        f.machine->launch(1, chan_recv(f.machine->core(1), f.layout.get(),
                                       &received, 0, 10));
        f.machine->run();
      },
      "precondition");
}

sim::Task<> back_to_back_sends(machine::CoreApi& api,
                               const ChannelLayout* layout,
                               const std::vector<std::byte>* a,
                               const std::vector<std::byte>* b, int dest) {
  Channel channel(api, *layout);
  co_await channel.send(*a, dest, 1);
  co_await channel.send(*b, dest, 2);
}

sim::Task<> back_to_back_recvs(machine::CoreApi& api,
                               const ChannelLayout* layout,
                               std::vector<std::byte>* a,
                               std::vector<std::byte>* b, int src) {
  Channel channel(api, *layout);
  co_await channel.recv(*a, src, 1);
  co_await channel.recv(*b, src, 2);
}

TEST(Channel, MessagesOrderedPerPair) {
  Fixture f;
  const auto first = pattern(700, 1);
  const auto second = pattern(300, 2);
  std::vector<std::byte> r1(700), r2(300);
  f.machine->launch(0, back_to_back_sends(f.machine->core(0), f.layout.get(),
                                          &first, &second, 3));
  f.machine->launch(3, back_to_back_recvs(f.machine->core(3), f.layout.get(),
                                          &r1, &r2, 0));
  f.machine->run();
  EXPECT_EQ(r1, first);
  EXPECT_EQ(r2, second);
}

sim::Task<> duplex_side(machine::CoreApi& api, const ChannelLayout* layout,
                        const std::vector<std::byte>* sdata,
                        std::vector<std::byte>* rdata, int peer) {
  Channel channel(api, *layout);
  co_await channel.sendrecv(*sdata, peer, *rdata, peer, 5);
}

TEST(Channel, DuplexSendrecvBothDirections) {
  Fixture f;
  const auto a = pattern(4000, 1);
  const auto b = pattern(4000, 2);
  std::vector<std::byte> ra(4000), rb(4000);
  f.machine->launch(0, duplex_side(f.machine->core(0), f.layout.get(), &a, &rb, 6));
  f.machine->launch(6, duplex_side(f.machine->core(6), f.layout.get(), &b, &ra, 0));
  f.machine->run();
  EXPECT_EQ(rb, b);
  EXPECT_EQ(ra, a);
}

TEST(Channel, DuplexFasterThanTwoBlockingTransfers) {
  // The progress loop overlaps the per-packet round trips of the two
  // directions; serial send-then-recv cannot.
  const auto run_duplex = [] {
    Fixture f;
    static std::vector<std::byte> a, b;
    static std::vector<std::byte> ra, rb;
    a = pattern(4000, 1);
    b = pattern(4000, 2);
    ra.assign(4000, std::byte{});
    rb.assign(4000, std::byte{});
    f.machine->launch(0, duplex_side(f.machine->core(0), f.layout.get(), &a, &rb, 1));
    f.machine->launch(1, duplex_side(f.machine->core(1), f.layout.get(), &b, &ra, 0));
    f.machine->run();
    return f.machine->engine().now();
  };
  const auto run_serial = [] {
    Fixture f;
    static std::vector<std::byte> a, b;
    static std::vector<std::byte> ra, rb;
    a = pattern(4000, 1);
    b = pattern(4000, 2);
    ra.assign(4000, std::byte{});
    rb.assign(4000, std::byte{});
    struct P {
      static sim::Task<> lo(machine::CoreApi& api, const ChannelLayout* l) {
        Channel c(api, *l);
        co_await c.send(a, 1, 5);
        co_await c.recv(ra, 1, 5);
      }
      static sim::Task<> hi(machine::CoreApi& api, const ChannelLayout* l) {
        Channel c(api, *l);
        co_await c.recv(rb, 0, 5);
        co_await c.send(b, 0, 5);
      }
    };
    f.machine->launch(0, P::lo(f.machine->core(0), f.layout.get()));
    f.machine->launch(1, P::hi(f.machine->core(1), f.layout.get()));
    f.machine->run();
    return f.machine->engine().now();
  };
  EXPECT_LT(run_duplex(), run_serial());
}

// --- mod-256 counter wraparound ------------------------------------------
//
// The flow-control counters live in 8-bit MPB flags and wrap mod 256;
// Channel::advance_counter folds them into 32-bit cumulative counts, which
// is sound only while in-flight lines stay below 256 (ring_lines() <= 64).

TEST(Channel, AdvanceCounterFoldsAcrossWrap) {
  std::uint32_t counter = 250;
  Channel::advance_counter(counter, static_cast<std::uint8_t>(260 & 0xFF));
  EXPECT_EQ(counter, 260u);
}

TEST(Channel, AdvanceCounterEqualFlagIsNoop) {
  std::uint32_t counter = 1000;  // 1000 mod 256 == 232
  Channel::advance_counter(counter, 232);
  EXPECT_EQ(counter, 1000u);
}

TEST(Channel, AdvanceCounterTracksManyWraps) {
  std::uint32_t counter = 0;
  std::uint32_t truth = 0;
  // Cumulative increments of at most 64 lines (the ring cap): the folded
  // counter must track the true count through a dozen 256-wraps.
  for (int i = 0; i < 100; ++i) {
    truth += static_cast<std::uint32_t>(1 + (i * 7) % 64);
    Channel::advance_counter(counter, static_cast<std::uint8_t>(truth & 0xFF));
    ASSERT_EQ(counter, truth);
  }
  EXPECT_GT(truth, 256u * 4);  // really crossed several wraps
}

sim::Task<> stream_send(machine::CoreApi& api, const ChannelLayout* layout,
                        int dest, int messages, std::size_t bytes,
                        bool* invariant_held) {
  Channel channel(api, *layout);
  for (int m = 0; m < messages; ++m) {
    const auto data = pattern(bytes, m);
    co_await channel.send(data, dest, m);
    // tx_credits derives from lines_sent - lines_acked, both folded from
    // the wrapped flag; it must never exceed the ring.
    *invariant_held =
        *invariant_held && channel.tx_credits(dest) <= layout->ring_lines();
  }
}

sim::Task<> stream_recv(machine::CoreApi& api, const ChannelLayout* layout,
                        int src, int messages, std::size_t bytes,
                        bool* data_ok, bool* invariant_held) {
  Channel channel(api, *layout);
  for (int m = 0; m < messages; ++m) {
    std::vector<std::byte> got(bytes);
    co_await channel.recv(got, src, m);
    *data_ok = *data_ok && got == pattern(bytes, m);
    *invariant_held =
        *invariant_held && channel.rx_available(src) <= layout->ring_lines();
  }
}

/// Streams enough framed lines through ONE persistent channel pair that the
/// cumulative counters wrap mod 256 several times; optional schedule
/// perturbation (seed 0 = off) explores other interleavings of the same
/// exchange.
void run_wrap_stream(std::uint64_t perturb_seed, std::uint64_t max_delay_fs) {
  // 224-byte payloads: 7 payload lines + 1 header = 8 lines per message;
  // 40 messages = 320 cumulative lines > 256 (and > 2x for the acks).
  constexpr int kMessages = 40;
  constexpr std::size_t kBytes = 224;
  Fixture f;
  if (perturb_seed != 0) {
    machine::SccConfig config;
    config.tiles_x = 2;
    config.tiles_y = 2;
    config.flags_per_core = f.layout->flags_needed();
    config.perturb_seed = perturb_seed;
    config.perturb_max_delay_fs = max_delay_fs;
    f.machine = std::make_unique<machine::SccMachine>(config);
  }
  bool tx_ok = true, rx_ok = true, data_ok = true;
  f.machine->launch(0, stream_send(f.machine->core(0), f.layout.get(), 5,
                                   kMessages, kBytes, &tx_ok));
  f.machine->launch(5, stream_recv(f.machine->core(5), f.layout.get(), 0,
                                   kMessages, kBytes, &data_ok, &rx_ok));
  f.machine->run();
  EXPECT_TRUE(tx_ok) << "tx_credits exceeded ring_lines (seed "
                     << perturb_seed << ")";
  EXPECT_TRUE(rx_ok) << "rx_available exceeded ring_lines (seed "
                     << perturb_seed << ")";
  EXPECT_TRUE(data_ok) << "payload corrupted across counter wrap (seed "
                       << perturb_seed << ")";
}

TEST(Channel, CounterWrapUnperturbed) { run_wrap_stream(0, 0); }

TEST(Channel, CounterWrapUnderPerturbation) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) run_wrap_stream(seed, 0);
}

TEST(Channel, CounterWrapUnderPerturbationWithDelays) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    run_wrap_stream(seed, 1'000'000);  // up to 1 ns injected per event
}

}  // namespace
}  // namespace scc::rckmpi
