#include "machine/core_api.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "machine/scc_machine.hpp"

namespace scc::machine {
namespace {

SccConfig small_config() {
  SccConfig config;
  config.tiles_x = 2;
  config.tiles_y = 2;
  return config;  // 8 cores
}

sim::Task<> compute_program(CoreApi& api, std::uint64_t cycles,
                            SimTime* elapsed) {
  const SimTime start = api.now();
  co_await api.compute(cycles);
  *elapsed = api.now() - start;
}

TEST(CoreApi, ComputeAdvancesTimeByCoreCycles) {
  SccMachine machine(small_config());
  SimTime elapsed;
  machine.launch(0, compute_program(machine.core(0), 533, &elapsed));
  machine.run();
  EXPECT_NEAR(elapsed.us(), 1.0, 1e-6);  // 533 cycles at 533 MHz = 1 us
}

TEST(CoreApi, ComputeAttributedToProfile) {
  SccMachine machine(small_config());
  SimTime elapsed;
  machine.launch(0, compute_program(machine.core(0), 1000, &elapsed));
  machine.run();
  EXPECT_EQ(machine.core(0).profile().get(Phase::kCompute), elapsed);
  EXPECT_EQ(machine.core(0).profile().get(Phase::kSwOverhead),
            SimTime::zero());
}

sim::Task<> put_get_program(CoreApi& api, std::vector<std::byte>* out) {
  std::vector<std::byte> data(64);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i);
  co_await api.mpb_put({3, 128}, data);
  out->resize(64);
  co_await api.mpb_get({3, 128}, *out);
}

TEST(CoreApi, MpbPutGetMovesRealBytes) {
  SccMachine machine(small_config());
  std::vector<std::byte> out;
  machine.launch(0, put_get_program(machine.core(0), &out));
  machine.run();
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<std::byte>(i));
  EXPECT_GT(machine.core(0).profile().get(Phase::kMpbTransfer),
            SimTime::zero());
}

TEST(CoreApi, RemoteMpbTrafficRecorded) {
  SccMachine machine(small_config());
  std::vector<std::byte> out;
  machine.launch(0, put_get_program(machine.core(0), &out));
  machine.run();
  // Core 0 -> core 3's MPB (different tile): 2 lines each way.
  EXPECT_EQ(machine.traffic().total_lines_sent(), 4u);
}

sim::Task<> flag_producer(CoreApi& api, FlagRef ref) {
  co_await api.compute(1000);
  co_await api.flag_set(ref, 1);
}

sim::Task<> flag_consumer(CoreApi& api, FlagRef ref, SimTime* when) {
  co_await api.flag_wait(ref, 1);
  *when = api.now();
}

TEST(CoreApi, FlagWaitBlocksUntilSet) {
  SccMachine machine(small_config());
  const FlagRef ref{1, 0};
  SimTime when;
  machine.launch(0, flag_producer(machine.core(0), ref));
  machine.launch(1, flag_consumer(machine.core(1), ref, &when));
  machine.run();
  // Consumer finished only after the producer's 1000 compute cycles plus
  // the flag write and detection charges.
  EXPECT_GT(when, Clock{533e6}.cycles(1000));
  EXPECT_GT(machine.core(1).profile().get(Phase::kFlagWait), SimTime::zero());
}

sim::Task<> wait_change_program(CoreApi& api, FlagRef ref, FlagValue* seen) {
  *seen = co_await api.flag_wait_change(ref, 0);
}

TEST(CoreApi, FlagWaitChangeReturnsNewValue) {
  SccMachine machine(small_config());
  const FlagRef ref{1, 3};
  FlagValue seen = 0;
  machine.launch(1, wait_change_program(machine.core(1), ref, &seen));
  machine.launch(0, flag_producer(machine.core(0), ref));
  machine.run();
  EXPECT_EQ(seen, 1);
}

sim::Task<> priv_toucher(CoreApi& api, const std::vector<double>* buf,
                         SimTime* cold, SimTime* warm) {
  SimTime t0 = api.now();
  co_await api.priv_read(buf->data(), buf->size() * sizeof(double));
  *cold = api.now() - t0;
  t0 = api.now();
  co_await api.priv_read(buf->data(), buf->size() * sizeof(double));
  *warm = api.now() - t0;
}

TEST(CoreApi, PrivateMemoryCachesAfterFirstTouch) {
  // The paper's Section IV-D argument: only the first access goes off-chip.
  SccMachine machine(small_config());
  std::vector<double> buf(256);
  SimTime cold, warm;
  machine.launch(0, priv_toucher(machine.core(0), &buf, &cold, &warm));
  machine.run();
  EXPECT_GT(cold, warm * 2);
}

sim::Task<> barrier_program(CoreApi& api, std::uint64_t pre_cycles,
                            SimTime* after) {
  co_await api.compute(pre_cycles);
  co_await api.sync_barrier();
  *after = api.now();
}

TEST(CoreApi, SyncBarrierAlignsAllCores) {
  SccMachine machine(small_config());
  const int p = machine.num_cores();
  std::vector<SimTime> after(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    machine.launch(r, barrier_program(machine.core(r),
                                      static_cast<std::uint64_t>(r) * 100,
                                      &after[static_cast<std::size_t>(r)]));
  }
  machine.run();
  for (int r = 1; r < p; ++r)
    EXPECT_EQ(after[static_cast<std::size_t>(r)], after[0]);
  // All resumed at the slowest core's arrival time.
  EXPECT_EQ(after[0], Clock{533e6}.cycles(static_cast<std::uint64_t>(p - 1) * 100));
}

TEST(Machine, PaperDefaultHas48Cores) {
  SccMachine machine;
  EXPECT_EQ(machine.num_cores(), 48);
  EXPECT_TRUE(machine.config().cost.hw.mpb_bug_workaround);
}

TEST(Machine, BugFixedConfigDisablesWorkaround) {
  SccMachine machine(SccConfig::bug_fixed());
  EXPECT_FALSE(machine.config().cost.hw.mpb_bug_workaround);
}

}  // namespace
}  // namespace scc::machine
