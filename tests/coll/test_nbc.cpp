// Direct tests of the non-blocking collective API (coll/nbc.hpp): result
// equivalence with the blocking schedules, lanes=1 timing bit-identity,
// overlapping-collectives interleave grid, done() at the moment of
// completion under a backlog, and the overlap win (lower makespan than
// serialized blocking calls on a non-blocking stack).
#include "coll/nbc.hpp"

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "coll/collectives.hpp"
#include "machine/scc_machine.hpp"

namespace scc::coll {
namespace {

using nbc::CollRequest;
using nbc::ProgressEngine;

machine::SccConfig mesh(int tx, int ty, int lanes = 1) {
  machine::SccConfig config;
  config.tiles_x = tx;
  config.tiles_y = ty;
  const int p = config.num_cores();
  config.flags_per_core =
      std::max(config.flags_per_core,
               rcce::Layout::lane(p, lanes - 1, lanes).flags_needed());
  return config;
}

std::vector<double> input_for(int rank, std::size_t n, int salt = 0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(
        (static_cast<std::size_t>(rank * 131 + salt * 17) + i * 7) % 251);
  }
  return v;
}

// --- blocking vs non-blocking equivalence --------------------------------

struct CoreBufs {
  std::vector<double> in;
  std::vector<double> out;
};

sim::Task<> blocking_allreduce_program(machine::CoreApi& api,
                                       const rcce::Layout* layout,
                                       Prims prims, CoreBufs* bufs) {
  Stack stack(api, *layout, prims);
  co_await allreduce(stack, bufs->in, bufs->out, ReduceOp::kSum,
                     SplitPolicy::kStandard);
}

sim::Task<> nbc_allreduce_program(machine::CoreApi& api, Prims prims,
                                  int lanes, CoreBufs* bufs) {
  ProgressEngine engine(api, prims, lanes);
  CollRequest req = engine.iallreduce(bufs->in, bufs->out, ReduceOp::kSum,
                                      SplitPolicy::kStandard);
  co_await req.wait();
  EXPECT_TRUE(req.done());
}

class NbcEquivalence : public ::testing::TestWithParam<Prims> {};

TEST_P(NbcEquivalence, AllreduceMatchesBlockingBitExact) {
  const Prims prims = GetParam();
  const std::size_t n = 96;
  // Blocking run.
  machine::SccMachine blocking_machine(mesh(2, 2));
  const int p = blocking_machine.num_cores();
  const rcce::Layout layout(p);
  std::vector<CoreBufs> blocking_bufs(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& b = blocking_bufs[static_cast<std::size_t>(r)];
    b.in = input_for(r, n);
    b.out.assign(n, -1.0);
    blocking_machine.launch(
        r, blocking_allreduce_program(blocking_machine.core(r), &layout,
                                      prims, &b));
  }
  blocking_machine.run();
  // Non-blocking run, one lane: same wire schedule, so outputs AND final
  // simulated time must match the blocking run bit-exactly.
  machine::SccMachine nbc_machine(mesh(2, 2));
  std::vector<CoreBufs> nbc_bufs(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto& b = nbc_bufs[static_cast<std::size_t>(r)];
    b.in = input_for(r, n);
    b.out.assign(n, -1.0);
    nbc_machine.launch(
        r, nbc_allreduce_program(nbc_machine.core(r), prims, 1, &b));
  }
  nbc_machine.run();
  for (int r = 0; r < p; ++r) {
    const auto& want = blocking_bufs[static_cast<std::size_t>(r)].out;
    const auto& got = nbc_bufs[static_cast<std::size_t>(r)].out;
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i], got[i]) << "rank " << r << " element " << i;
    }
  }
  EXPECT_EQ(blocking_machine.now(), nbc_machine.now())
      << "lanes=1 nbc must be timing-identical to the blocking schedule";
}

INSTANTIATE_TEST_SUITE_P(AllPrims, NbcEquivalence,
                         ::testing::ValuesIn(std::vector<Prims>(
                             kAllPrims.begin(), kAllPrims.end())),
                         [](const ::testing::TestParamInfo<Prims>& param) {
                           return std::string(prims_name(param.param));
                         });

// --- overlapping collectives (interleave grid) ---------------------------

struct GridBufs {
  std::vector<double> ag_in, ag_out;
  std::vector<double> ar_in, ar_out;
  std::vector<double> a2a_in, a2a_out;
  std::vector<double> bc_data;
};

constexpr std::size_t kGridN = 24;
constexpr int kGridRoot = 1;

/// Rank r's buffers for one allgather, allreduce, alltoall and broadcast
/// (from kGridRoot); inputs use salts salt..salt+3.
GridBufs grid_bufs(int r, int p, int salt) {
  const std::size_t n = kGridN;
  const std::size_t np = n * static_cast<std::size_t>(p);
  GridBufs b;
  b.ag_in = input_for(r, n, salt);
  b.ag_out.assign(np, -1.0);
  b.ar_in = input_for(r, n, salt + 1);
  b.ar_out.assign(n, -1.0);
  b.a2a_in = input_for(r, np, salt + 2);
  b.a2a_out.assign(np, -1.0);
  b.bc_data = r == kGridRoot ? input_for(r, 4 * n, salt + 3)
                             : std::vector<double>(4 * n, -1.0);
  return b;
}

/// Rank r's outputs against the serial reference.
void expect_grid_outputs(const GridBufs& b, int r, int p, int salt) {
  const std::size_t n = kGridN;
  const std::size_t mine = static_cast<std::size_t>(r) * n;
  std::vector<double> ag, ar(n, 0.0), a2a;
  for (int s = 0; s < p; ++s) {
    const auto contribution = input_for(s, n, salt);
    ag.insert(ag.end(), contribution.begin(), contribution.end());
    const auto in = input_for(s, n, salt + 1);
    for (std::size_t i = 0; i < n; ++i) ar[i] += in[i];
    const auto sent = input_for(s, n * static_cast<std::size_t>(p), salt + 2);
    a2a.insert(a2a.end(), sent.begin() + static_cast<std::ptrdiff_t>(mine),
               sent.begin() + static_cast<std::ptrdiff_t>(mine + n));
  }
  EXPECT_EQ(b.ag_out, ag) << "allgather rank " << r;
  EXPECT_EQ(b.ar_out, ar) << "allreduce rank " << r;
  EXPECT_EQ(b.a2a_out, a2a) << "alltoall rank " << r;
  EXPECT_EQ(b.bc_data, input_for(kGridRoot, 4 * n, salt + 3))
      << "broadcast rank " << r;
}

sim::Task<> nbc_grid_program(machine::CoreApi& api, Prims prims, int lanes,
                             GridBufs* bufs) {
  ProgressEngine engine(api, prims, lanes);
  CollRequest ag = engine.iallgather(bufs->ag_in, bufs->ag_out);
  CollRequest ar = engine.iallreduce(bufs->ar_in, bufs->ar_out,
                                     ReduceOp::kSum, SplitPolicy::kStandard);
  CollRequest a2a = engine.ialltoall(bufs->a2a_in, bufs->a2a_out);
  CollRequest bc =
      engine.ibcast(bufs->bc_data, kGridRoot, SplitPolicy::kStandard);
  // Drive completion out of initiation order through progress()+wait().
  while (!a2a.done()) co_await engine.progress();
  co_await bc.wait();
  co_await ag.wait();
  co_await ar.wait();
  EXPECT_TRUE(engine.idle());
}

class NbcInterleave
    : public ::testing::TestWithParam<std::tuple<Prims, int>> {};

TEST_P(NbcInterleave, FourOverlappingCollectivesAllCorrect) {
  const auto [prims, lanes] = GetParam();
  machine::SccMachine machine(mesh(2, 2, lanes));
  const int p = machine.num_cores();
  std::vector<GridBufs> bufs;
  for (int r = 0; r < p; ++r) bufs.push_back(grid_bufs(r, p, 1));
  for (int r = 0; r < p; ++r) {
    machine.launch(r, nbc_grid_program(machine.core(r), prims, lanes,
                                       &bufs[static_cast<std::size_t>(r)]));
  }
  machine.run();
  for (int r = 0; r < p; ++r) {
    expect_grid_outputs(bufs[static_cast<std::size_t>(r)], r, p, 1);
  }
}

std::vector<std::tuple<Prims, int>> interleave_params() {
  std::vector<std::tuple<Prims, int>> params;
  for (const Prims prims : kAllPrims) {
    for (const int lanes : {1, 2, 4}) {
      // The blocking layer's synchronous handshake cannot poll-and-yield,
      // so multi-lane engines reject it (ProgressEngine ctor contract).
      if (prims == Prims::kBlocking && lanes > 1) continue;
      params.emplace_back(prims, lanes);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    PrimsByLanes, NbcInterleave, ::testing::ValuesIn(interleave_params()),
    [](const ::testing::TestParamInfo<std::tuple<Prims, int>>& param) {
      return std::string(prims_name(std::get<0>(param.param))) + "_lanes" +
             std::to_string(std::get<1>(param.param));
    });

// --- done() under a backlog ----------------------------------------------

// Two grid sets, eight requests up front on two lanes; done() is queried
// for every request after every pass until the engine is idle.
sim::Task<> backlog_program(machine::CoreApi& api, Prims prims, GridBufs* a,
                            GridBufs* b) {
  ProgressEngine engine(api, prims, 2);
  const auto split = SplitPolicy::kStandard;
  // Ids alternate lanes, so each lane holds all four kinds in a different
  // order. A braced list initiates in order.
  const std::vector<std::pair<CollRequest, std::span<const double>>> reqs = {
      {engine.iallgather(a->ag_in, a->ag_out), a->ag_out},
      {engine.iallreduce(a->ar_in, a->ar_out, ReduceOp::kSum, split),
       a->ar_out},
      {engine.ialltoall(a->a2a_in, a->a2a_out), a->a2a_out},
      {engine.ibcast(a->bc_data, kGridRoot, split), a->bc_data},
      {engine.ibcast(b->bc_data, kGridRoot, split), b->bc_data},
      {engine.ialltoall(b->a2a_in, b->a2a_out), b->a2a_out},
      {engine.iallreduce(b->ar_in, b->ar_out, ReduceOp::kSum, split),
       b->ar_out},
      {engine.iallgather(b->ag_in, b->ag_out), b->ag_out}};
  std::vector<std::vector<double>> snapshots(reqs.size());
  std::vector<bool> seen(reqs.size(), false);
  while (!engine.idle()) {
    co_await engine.progress();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const bool done = reqs[i].first.done();
      EXPECT_TRUE(done || !seen[i]) << "request " << i << " un-completed";
      if (!done || seen[i]) continue;
      EXPECT_TRUE(i < 2 || seen[i - 2])
          << "request " << i << " retired before " << i - 2;
      seen[i] = true;
      snapshots[i].assign(reqs[i].second.begin(), reqs[i].second.end());
    }
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(snapshots[i], std::vector<double>(reqs[i].second.begin(),
                                                reqs[i].second.end()))
        << "rank " << api.rank() << " request " << i
        << ": done() held before the output was final";
  }
}

TEST(NbcBacklog, DoneIsNeverEarlyAndLanesRetireInOrder) {
  for (const Prims prims : {Prims::kIrcce, Prims::kLightweight}) {
    SCOPED_TRACE(prims_name(prims));
    machine::SccMachine machine(mesh(2, 2, 2));
    const int p = machine.num_cores();
    std::vector<GridBufs> a, b;
    for (int r = 0; r < p; ++r) {
      a.push_back(grid_bufs(r, p, 1));
      b.push_back(grid_bufs(r, p, 5));
    }
    for (int r = 0; r < p; ++r) {
      const auto k = static_cast<std::size_t>(r);
      machine.launch(r, backlog_program(machine.core(r), prims, &a[k], &b[k]));
    }
    machine.run();
    for (int r = 0; r < p; ++r) {
      expect_grid_outputs(a[static_cast<std::size_t>(r)], r, p, 1);
      expect_grid_outputs(b[static_cast<std::size_t>(r)], r, p, 5);
    }
  }
}

// --- overlap win ---------------------------------------------------------

sim::Task<> serialized_pair_program(machine::CoreApi& api,
                                    const rcce::Layout* layout, Prims prims,
                                    std::span<double> a, std::span<double> b,
                                    int root_a, int root_b) {
  Stack stack(api, *layout, prims);
  co_await broadcast(stack, a, root_a, SplitPolicy::kStandard);
  co_await broadcast(stack, b, root_b, SplitPolicy::kStandard);
}

sim::Task<> overlapped_pair_program(machine::CoreApi& api, Prims prims,
                                    std::span<double> a, std::span<double> b,
                                    int root_a, int root_b) {
  ProgressEngine engine(api, prims, 2);
  CollRequest ra = engine.ibcast(a, root_a, SplitPolicy::kStandard);
  CollRequest rb = engine.ibcast(b, root_b, SplitPolicy::kStandard);
  co_await ra.wait();
  co_await rb.wait();
}

TEST(NbcOverlap, TwoCollectivesBeatSerializedBlocking) {
  // Two binomial broadcasts from opposite roots: each core is idle during
  // different rounds of each tree (leaves wait out the early rounds), so
  // overlapping the two schedules on two lanes fills real dead time.
  // Serialized back-to-back calls pay both trees' waits in full; the
  // two-lane engine must finish strictly sooner with identical results.
  const std::size_t n = 256;
  for (const Prims prims : {Prims::kIrcce, Prims::kLightweight}) {
    machine::SccMachine serial_machine(mesh(2, 2));
    const int p = serial_machine.num_cores();
    const rcce::Layout layout(p);
    const int root_a = 0;
    const int root_b = p - 1;
    const auto data_a = input_for(root_a, n, 1);
    const auto data_b = input_for(root_b, n, 2);
    std::vector<CoreBufs> sbufs(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      auto& b = sbufs[static_cast<std::size_t>(r)];
      b.in = r == root_a ? data_a : std::vector<double>(n, -1.0);
      b.out = r == root_b ? data_b : std::vector<double>(n, -1.0);
      serial_machine.launch(
          r, serialized_pair_program(serial_machine.core(r), &layout, prims,
                                     b.in, b.out, root_a, root_b));
    }
    serial_machine.run();

    machine::SccMachine nbc_machine(mesh(2, 2, 2));
    std::vector<CoreBufs> nbufs(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      auto& b = nbufs[static_cast<std::size_t>(r)];
      b.in = r == root_a ? data_a : std::vector<double>(n, -1.0);
      b.out = r == root_b ? data_b : std::vector<double>(n, -1.0);
      nbc_machine.launch(
          r, overlapped_pair_program(nbc_machine.core(r), prims, b.in, b.out,
                                     root_a, root_b));
    }
    nbc_machine.run();
    // Results identical...
    for (int r = 0; r < p; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(nbufs[static_cast<std::size_t>(r)].in[i], data_a[i])
            << prims_name(prims) << " bcast A rank " << r;
        ASSERT_EQ(nbufs[static_cast<std::size_t>(r)].out[i], data_b[i])
            << prims_name(prims) << " bcast B rank " << r;
        ASSERT_EQ(sbufs[static_cast<std::size_t>(r)].in[i], data_a[i]);
        ASSERT_EQ(sbufs[static_cast<std::size_t>(r)].out[i], data_b[i]);
      }
    }
    // ...and the overlapped makespan strictly lower.
    EXPECT_LT(nbc_machine.now(), serial_machine.now())
        << prims_name(prims);
  }
}

}  // namespace
}  // namespace scc::coll
