#include "coll/mpb_allreduce.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "machine/scc_machine.hpp"

namespace scc::coll {
namespace {

machine::SccConfig mesh(int tx, int ty) {
  machine::SccConfig config;
  config.tiles_x = tx;
  config.tiles_y = ty;
  return config;
}

sim::Task<> run_once(machine::CoreApi& api, const rcce::Layout* layout,
                     const std::vector<double>* in, std::vector<double>* out,
                     SplitPolicy policy) {
  MpbAllreduce allreduce(api, *layout);
  co_await allreduce.run(*in, *out, rcce::ReduceOp::kSum, policy);
}

sim::Task<> run_many(machine::CoreApi& api, const rcce::Layout* layout,
                     const std::vector<double>* in, std::vector<double>* out,
                     int times) {
  // ONE persistent object across invocations: the sequence-numbered
  // double-buffer handshake requires both sides to keep counting.
  MpbAllreduce allreduce(api, *layout);
  for (int i = 0; i < times; ++i) {
    co_await allreduce.run(*in, *out, rcce::ReduceOp::kSum,
                           SplitPolicy::kBalanced);
  }
}

class MpbAllreduceSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MpbAllreduceSize, SumsCorrectly) {
  machine::SccMachine machine(mesh(2, 2));
  const int p = machine.num_cores();
  const rcce::Layout layout(p);
  const std::size_t n = GetParam();
  std::vector<std::vector<double>> in, out;
  for (int r = 0; r < p; ++r) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = static_cast<double>(static_cast<std::size_t>(r + 1) * 100 + i);
    in.push_back(std::move(v));
    out.emplace_back(n, 0.0);
  }
  for (int r = 0; r < p; ++r)
    machine.launch(r, run_once(machine.core(r), &layout,
                               &in[static_cast<std::size_t>(r)],
                               &out[static_cast<std::size_t>(r)],
                               SplitPolicy::kBalanced));
  machine.run();
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      double want = 0.0;
      for (int src = 0; src < p; ++src)
        want += in[static_cast<std::size_t>(src)][i];
      EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)][i], want)
          << "core " << r << " element " << i;
    }
  }
}

// n = 3 < p leaves empty blocks: harness::Comm routes such sizes to the
// ring, so only this suite reaches that path of the routine.
INSTANTIATE_TEST_SUITE_P(Sizes, MpbAllreduceSize,
                         ::testing::Values(3, 8, 9, 48, 52, 100, 552),
                         [](const auto& param_info) {
                           return "n" + std::to_string(param_info.param);
                         });

TEST(MpbAllreduce, StandardSplitAlsoCorrect) {
  machine::SccMachine machine(mesh(2, 2));
  const int p = machine.num_cores();
  const rcce::Layout layout(p);
  const std::size_t n = 29;  // remainder 5 on 8 cores
  std::vector<std::vector<double>> in(static_cast<std::size_t>(p),
                                      std::vector<double>(n, 1.0)),
      out(static_cast<std::size_t>(p), std::vector<double>(n, 0.0));
  for (int r = 0; r < p; ++r)
    machine.launch(r, run_once(machine.core(r), &layout,
                               &in[static_cast<std::size_t>(r)],
                               &out[static_cast<std::size_t>(r)],
                               SplitPolicy::kStandard));
  machine.run();
  for (int r = 0; r < p; ++r)
    for (const double v : out[static_cast<std::size_t>(r)])
      EXPECT_DOUBLE_EQ(v, static_cast<double>(p));
}

TEST(MpbAllreduce, BackToBackInvocationsStayCorrect) {
  // Exercises the sequence-flag discipline across many reuses of the two
  // MPB buffers, including the 8-bit counter wrap (>255 events per flag
  // needs > 127 invocations of a 2-core ring; with 8 cores, 40 runs give
  // 2*40*(p-1) > 255 events).
  machine::SccMachine machine(mesh(2, 2));
  const int p = machine.num_cores();
  const rcce::Layout layout(p);
  const std::size_t n = 24;
  std::vector<std::vector<double>> in(static_cast<std::size_t>(p),
                                      std::vector<double>(n, 2.0)),
      out(static_cast<std::size_t>(p), std::vector<double>(n, 0.0));
  for (int r = 0; r < p; ++r)
    machine.launch(r, run_many(machine.core(r), &layout,
                               &in[static_cast<std::size_t>(r)],
                               &out[static_cast<std::size_t>(r)], 40));
  machine.run();
  for (int r = 0; r < p; ++r)
    for (const double v : out[static_cast<std::size_t>(r)])
      EXPECT_DOUBLE_EQ(v, 2.0 * p);
}

TEST(MpbAllreduce, TwoCoreRing) {
  machine::SccMachine machine(mesh(1, 1));  // 2 cores, one tile
  const rcce::Layout layout(2);
  std::vector<std::vector<double>> in{{1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}};
  std::vector<std::vector<double>> out{{0, 0, 0}, {0, 0, 0}};
  for (int r = 0; r < 2; ++r)
    machine.launch(r, run_once(machine.core(r), &layout,
                               &in[static_cast<std::size_t>(r)],
                               &out[static_cast<std::size_t>(r)],
                               SplitPolicy::kBalanced));
  machine.run();
  for (int r = 0; r < 2; ++r) {
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)][0], 11.0);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)][1], 22.0);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)][2], 33.0);
  }
}

sim::Task<> run_timed(machine::CoreApi& api, const rcce::Layout* layout,
                      const std::vector<double>* in, std::vector<double>* out,
                      SimTime* elapsed) {
  MpbAllreduce allreduce(api, *layout);
  const SimTime start = api.now();
  co_await allreduce.run(*in, *out, rcce::ReduceOp::kSum,
                         SplitPolicy::kBalanced);
  *elapsed = api.now() - start;
}

TEST(MpbAllreduce, FasterWithoutArbiterBug) {
  // Section IV-D: "with the hardware bug resolved, we expect significantly
  // higher speedups" -- at minimum the routine itself must get faster.
  SimTime with_bug, without_bug;
  for (const bool bug : {true, false}) {
    machine::SccConfig config = mesh(2, 2);
    config.cost.hw.mpb_bug_workaround = bug;
    machine::SccMachine machine(config);
    const int p = machine.num_cores();
    const rcce::Layout layout(p);
    std::vector<std::vector<double>> in(static_cast<std::size_t>(p),
                                        std::vector<double>(96, 1.0)),
        out(static_cast<std::size_t>(p), std::vector<double>(96, 0.0));
    std::vector<SimTime> elapsed(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r)
      machine.launch(r, run_timed(machine.core(r), &layout,
                                  &in[static_cast<std::size_t>(r)],
                                  &out[static_cast<std::size_t>(r)],
                                  &elapsed[static_cast<std::size_t>(r)]));
    machine.run();
    (bug ? with_bug : without_bug) = elapsed[0];
  }
  EXPECT_LT(without_bug, with_bug);
}

}  // namespace
}  // namespace scc::coll
