// Unit tests for the conservative-PDES coordinator: window protocol
// semantics, the deterministic (target, source, FIFO) merge, the enforced
// lookahead contract, root-task bookkeeping, and the lookahead derivation
// helpers in noc::Topology / mem::LatencyCalculator / machine::.
#include "sim/pdes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_model.hpp"
#include "machine/scc_machine.hpp"
#include "mem/cost_model.hpp"
#include "mem/latency.hpp"
#include "noc/topology.hpp"
#include "sim/wait_queue.hpp"

namespace scc::sim {
namespace {

// Free coroutine functions (not lambdas): parameters are copied into the
// frame, so nothing dangles once the spawning statement ends.
Task<> sleep_then_throw(Engine* engine) {
  co_await engine->sleep_for(SimTime{5});
  throw std::runtime_error("partition-0 root boom");
}

Task<> waits_forever(WaitQueue* queue) { co_await queue->wait(); }

PdesConfig two_partitions(SimTime lookahead = SimTime{100}) {
  PdesConfig config;
  config.partitions = 2;
  config.workers = 2;
  config.lookahead = lookahead;
  return config;
}

TEST(PdesEngine, SinglePartitionMatchesPlainEngine) {
  const auto schedule = [](Engine& engine, std::vector<int>* order) {
    for (int i = 0; i < 16; ++i) {
      engine.schedule_call(SimTime{static_cast<std::uint64_t>(
                               (i * 37) % 7 + 1)},
                           [order, i] { order->push_back(i); });
    }
  };
  Engine plain;
  std::vector<int> plain_order;
  schedule(plain, &plain_order);
  plain.run();

  PdesConfig config;
  config.partitions = 1;
  config.lookahead = SimTime{5};
  PdesEngine pdes(config);
  std::vector<int> pdes_order;
  schedule(pdes.partition(0), &pdes_order);
  pdes.run();

  EXPECT_EQ(pdes_order, plain_order);
  EXPECT_EQ(pdes.events_processed(), plain.events_processed());
  EXPECT_EQ(pdes.now(), plain.now());
}

TEST(PdesEngine, CrossPartitionPostsRunAtTheirTimestamp) {
  PdesEngine pdes(two_partitions());
  std::vector<std::string> log;
  pdes.partition(0).schedule_call(SimTime{10}, [&] {
    const SimTime when = pdes.partition(0).now() + pdes.lookahead();
    pdes.post(0, 1, when, [&] {
      log.push_back("remote@" +
                    std::to_string(pdes.partition(1).now().femtoseconds()));
    });
    log.push_back("local");
  });
  pdes.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "local");
  EXPECT_EQ(log[1], "remote@110");
  EXPECT_EQ(pdes.stats().posts_delivered, 1u);
  EXPECT_GE(pdes.stats().windows, 1u);
}

TEST(PdesEngine, SamePartitionPostDegeneratesToScheduleCall) {
  // A same-partition post needs no conservatism: it may land inside the
  // current window, closer than the lookahead.
  PdesEngine pdes(two_partitions());
  bool ran = false;
  pdes.partition(0).schedule_call(SimTime{10}, [&] {
    pdes.post(0, 0, pdes.partition(0).now() + SimTime{1},
              [&] { ran = true; });
  });
  pdes.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(pdes.stats().posts_delivered, 0u);  // never crossed an outbox
}

TEST(PdesEngine, SetupPostsBeforeRunAreDelivered) {
  // post() before run(), with every heap still empty: the stray-post merge
  // must seed the heaps rather than losing the events. The lookahead puts
  // the two events in separate windows: in one window the two partitions
  // would run concurrently, racing on `order`.
  PdesEngine pdes(two_partitions(SimTime{10}));
  std::vector<int> order;
  pdes.post(0, 1, SimTime{50}, [&] { order.push_back(1); });
  pdes.post(1, 0, SimTime{20}, [&] { order.push_back(0); });
  pdes.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(pdes.stats().posts_delivered, 2u);
}

TEST(PdesEngine, MergeOrderIsSourceFifoPerTarget) {
  // Two sources post equal-timestamp events into partition 2 during the
  // same window; the merge must enqueue them in (source, FIFO) order, so
  // the target's tie-break fires source 0's posts first -- regardless of
  // which worker drained which source when.
  PdesConfig config;
  config.partitions = 3;
  config.workers = 3;
  config.lookahead = SimTime{100};
  PdesEngine pdes(config);
  std::vector<std::string> order;
  const SimTime when{200};  // >= horizon of the t=10 window either way
  pdes.partition(1).schedule_call(SimTime{10}, [&] {
    pdes.post(1, 2, when, [&] { order.push_back("s1a"); });
    pdes.post(1, 2, when, [&] { order.push_back("s1b"); });
  });
  pdes.partition(0).schedule_call(SimTime{10}, [&] {
    pdes.post(0, 2, when, [&] { order.push_back("s0a"); });
    pdes.post(0, 2, when, [&] { order.push_back("s0b"); });
  });
  pdes.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"s0a", "s0b", "s1a", "s1b"}));
}

TEST(PdesEngine, ChainedWindowsAdvanceAcrossPartitions) {
  // Ping-pong: each delivery posts back, always lookahead ahead. The
  // window loop must keep making progress until the chain runs out.
  PdesEngine pdes(two_partitions(SimTime{10}));
  int deliveries = 0;
  struct Bouncer {
    PdesEngine* pdes;
    int* count;
    void bounce(int from, int hops_left) const {
      if (hops_left == 0) return;
      const int to = 1 - from;
      const SimTime when = pdes->partition(from).now() + pdes->lookahead();
      const Bouncer self = *this;
      pdes->post(from, to, when, [self, to, hops_left] {
        ++*self.count;
        self.bounce(to, hops_left - 1);
      });
    }
  };
  const Bouncer bouncer{&pdes, &deliveries};
  pdes.partition(0).schedule_call(SimTime{1},
                                  [&] { bouncer.bounce(0, 32); });
  pdes.run();
  EXPECT_EQ(deliveries, 32);
  EXPECT_EQ(pdes.stats().posts_delivered, 32u);
  EXPECT_GE(pdes.stats().windows, 32u);  // each hop needs a fresh window
  EXPECT_EQ(pdes.now(), SimTime{1} + SimTime{10} * 32u);
}

TEST(PdesEngine, RootTasksRunAndExceptionsSurface) {
  PdesEngine pdes(two_partitions());
  pdes.partition(0).spawn(sleep_then_throw(&pdes.partition(0)), "p0-root");
  EXPECT_THROW(pdes.run(), std::runtime_error);
}

TEST(PdesEngine, DeadlockedRootsAreDiagnosed) {
  PdesEngine pdes(two_partitions());
  WaitQueue queue(pdes.partition(1));
  pdes.partition(1).spawn(waits_forever(&queue), "stuck-p1");
  try {
    pdes.run();
    FAIL() << "expected deadlock";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stuck-p1"), std::string::npos);
  }
}

TEST(PdesEngineDeathTest, LookaheadContractViolationAborts) {
  // Posting closer than the lookahead is a correctness bug (the window
  // already executed past that time on the target); the merge must abort,
  // not silently reorder.
  EXPECT_DEATH(
      {
        PdesEngine pdes(two_partitions(SimTime{100}));
        pdes.partition(0).schedule_call(SimTime{10}, [&] {
          pdes.post(0, 1, pdes.partition(0).now() + SimTime{1}, [] {});
        });
        pdes.run();
      },
      "precondition");
}

TEST(PdesEngineDeathTest, ZeroLookaheadIsRejected) {
  EXPECT_DEATH(
      {
        PdesConfig config;
        config.partitions = 2;
        config.lookahead = SimTime::zero();
        PdesEngine pdes(config);
      },
      "precondition");
}

TEST(PdesLookahead, TopologyPartitionsAreBalancedColumnSlabs) {
  const noc::Topology topo(8, 4, 1);
  int last = 0;
  std::vector<int> cores_per_partition(4, 0);
  for (int core = 0; core < topo.num_cores(); ++core) {
    const int p = topo.partition_of(core, 4);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 4);
    // Column slabs: partition is a function of x only, monotone in x.
    EXPECT_EQ(p, topo.coord_of(core).x * 4 / topo.tiles_x());
    last = p;
    ++cores_per_partition[static_cast<std::size_t>(p)];
  }
  EXPECT_EQ(last, 3);
  for (const int count : cores_per_partition) EXPECT_EQ(count, 8);
  EXPECT_EQ(topo.min_partition_separation_hops(1), 0);
  EXPECT_EQ(topo.min_partition_separation_hops(4), 1);
}

/// Brute-forced minimum cross-partition interaction charge: the smallest
/// value any cross-post's lookahead audit compares against, recomputed
/// here from the public LatencyCalculator formulas (reads pay the slab
/// boundary twice -- request and owner-side copy-out -- so they bound the
/// lookahead at half weight).
SimTime min_cross_partition_charge(const mem::LatencyCalculator& latency,
                                   const noc::Topology& topo,
                                   int partitions) {
  SimTime best = SimTime::max();
  for (int a = 0; a < topo.num_cores(); ++a) {
    for (int b = 0; b < topo.num_cores(); ++b) {
      if (topo.partition_of(a, partitions) ==
          topo.partition_of(b, partitions)) {
        continue;
      }
      const SimTime write = latency.mpb_line_access(a, b, /*is_read=*/false);
      const SimTime word = latency.mpb_word_stream(
          a, b, sizeof(std::uint32_t), /*is_read=*/false);
      const SimTime half_read =
          SimTime{latency.mpb_line_access(a, b, /*is_read=*/true)
                      .femtoseconds() /
                  2};
      const SimTime half_word =
          SimTime{latency.mpb_word_stream(a, b, sizeof(std::uint32_t),
                                          /*is_read=*/true)
                      .femtoseconds() /
                  2};
      best = std::min({best, write, word, half_read, half_word});
    }
  }
  return best;
}

TEST(PdesLookahead, MachineLookaheadTightensAboveHopFloor) {
  const noc::Topology topo(6, 4, 2);
  const mem::HwCostModel hw;
  const mem::LatencyCalculator latency(hw, topo);
  const SimTime hop = hw.mesh_clock().cycles(hw.mesh_cycles_per_hop);
  const SimTime lookahead = machine::pdes_lookahead(latency, topo, 4);
  // Partitioned: the bound is the true minimum cross-partition interaction
  // charge, which includes the MPB access cost on top of the transit and
  // therefore sits strictly above the pure hop floor the seed used.
  EXPECT_GT(lookahead, hop);
  EXPECT_EQ(lookahead, min_cross_partition_charge(latency, topo, 4));
  // Single partition: no boundary to audit against; the positive hop floor
  // keeps PdesConfig's lookahead > 0 precondition satisfied.
  EXPECT_EQ(machine::pdes_lookahead(latency, topo, 1), hop);
}

TEST(PdesLookahead, MachineLookaheadClampsToFaultEffectiveCharges) {
  const noc::Topology topo(6, 4, 2);
  const mem::HwCostModel hw;
  const mem::LatencyCalculator healthy(hw, topo);

  // Slow every link and throttle every core: all cross-partition charges
  // rise, so the fault-effective bound must rise with them -- but never
  // above the smallest charge an audit will actually see.
  faults::FaultSpec spec;
  for (int x = 0; x < topo.tiles_x() - 1; ++x) {
    for (int y = 0; y < topo.tiles_y(); ++y) {
      spec.slow_links.push_back({{{x, y}, {x + 1, y}}, 3.0});
    }
  }
  for (int core = 0; core < topo.num_cores(); ++core) {
    spec.stragglers.push_back({core, 2.0});
  }
  const faults::FaultModel faults(spec, topo);
  const mem::LatencyCalculator degraded(hw, topo, &faults);

  const SimTime healthy_bound = machine::pdes_lookahead(healthy, topo, 4);
  const SimTime fault_bound = machine::pdes_lookahead(degraded, topo, 4);
  EXPECT_GE(fault_bound, healthy_bound);
  EXPECT_GT(fault_bound, healthy_bound);  // every boundary link is slowed
  EXPECT_EQ(fault_bound, min_cross_partition_charge(degraded, topo, 4));
}

TEST(PdesLookaheadDeathTest, SpeedupFaultFactorsAreRejected) {
  // The lookahead stays a LOWER bound under faults only because fault
  // factors can never accelerate a charge. A factor < 1 must be rejected
  // at FaultModel construction, not discovered as a lookahead-contract
  // abort mid-drain.
  const noc::Topology topo(6, 4, 2);
  faults::FaultSpec spec;
  spec.stragglers.push_back({0, 0.5});
  const auto error = faults::FaultModel::check(spec, topo);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("must be >= 1"), std::string::npos);
  EXPECT_DEATH({ const faults::FaultModel model(spec, topo); }, "");
}

}  // namespace
}  // namespace scc::sim
