#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/frame_arena.hpp"
#include "sim/wait_queue.hpp"

namespace scc::sim {
namespace {

Task<> sleep_then_record(Engine* engine, SimTime delay, int id,
                         std::vector<int>* order) {
  co_await engine->sleep_for(delay);
  order->push_back(id);
}

Task<> record_at_times(Engine* engine, std::vector<std::uint64_t>* log) {
  co_await engine->sleep_for(SimTime{100});
  log->push_back(engine->now().femtoseconds());
  co_await engine->sleep_for(SimTime{50});
  log->push_back(engine->now().femtoseconds());
}

TEST(Engine, TimeStartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), SimTime::zero());
}

TEST(Engine, SleepAdvancesVirtualTime) {
  Engine engine;
  std::vector<std::uint64_t> log;
  engine.spawn(record_at_times(&engine, &log), "t");
  engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 100u);
  EXPECT_EQ(log[1], 150u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.spawn(sleep_then_record(&engine, SimTime{300}, 3, &order), "a");
  engine.spawn(sleep_then_record(&engine, SimTime{100}, 1, &order), "b");
  engine.spawn(sleep_then_record(&engine, SimTime{200}, 2, &order), "c");
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.spawn(sleep_then_record(&engine, SimTime{100}, i, &order),
                 "same-time");
  }
  engine.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ZeroDelaySleepStillYields) {
  Engine engine;
  std::vector<int> order;
  engine.spawn(sleep_then_record(&engine, SimTime::zero(), 1, &order), "a");
  engine.spawn(sleep_then_record(&engine, SimTime::zero(), 2, &order), "b");
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, ScheduleCallRunsFunctions) {
  Engine engine;
  bool called = false;
  engine.schedule_call(SimTime{10}, [&] { called = true; });
  engine.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(engine.now(), SimTime{10});
}

TEST(Engine, EventsProcessedCounter) {
  Engine engine;
  engine.schedule_call(SimTime{1}, [] {});
  engine.schedule_call(SimTime{2}, [] {});
  engine.run();
  EXPECT_EQ(engine.events_processed(), 2u);
}

Task<> waits_forever(WaitQueue* queue) { co_await queue->wait(); }

TEST(Engine, DeadlockDetectedAndNamed) {
  Engine engine;
  WaitQueue queue(engine);
  engine.spawn(waits_forever(&queue), "stuck-core");
  try {
    engine.run();
    FAIL() << "expected deadlock";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stuck-core"), std::string::npos);
  }
}

// Regression: the deadlock diagnostic must name every stuck task AND the
// perturbation seed, because replaying a deadlock found during perturbed
// runs requires the exact (program, seed) pair.
TEST(Engine, DeadlockDiagnosticsListTasksAndPerturbationSeed) {
  Engine engine;
  engine.enable_perturbation(PerturbConfig{77, SimTime::zero()});
  WaitQueue queue(engine);
  engine.spawn(waits_forever(&queue), "stuck-a");
  engine.spawn(waits_forever(&queue), "stuck-b");
  try {
    engine.run();
    FAIL() << "expected deadlock";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stuck-a"), std::string::npos) << what;
    EXPECT_NE(what.find("stuck-b"), std::string::npos) << what;
    EXPECT_NE(what.find("perturbation seed 77"), std::string::npos) << what;
  }
}

TEST(Engine, DeadlockDiagnosticsSayPerturbationOffWhenUnperturbed) {
  Engine engine;
  WaitQueue queue(engine);
  engine.spawn(waits_forever(&queue), "stuck");
  try {
    engine.run();
    FAIL() << "expected deadlock";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("perturbation off"),
              std::string::npos);
  }
}

TEST(Engine, RunDetectDeadlockReturnsFalse) {
  Engine engine;
  WaitQueue queue(engine);
  engine.spawn(waits_forever(&queue), "stuck");
  EXPECT_FALSE(engine.run_detect_deadlock());
}

TEST(Engine, RunDetectDeadlockTrueWhenClean) {
  Engine engine;
  std::vector<int> order;
  engine.spawn(sleep_then_record(&engine, SimTime{5}, 1, &order), "ok");
  EXPECT_TRUE(engine.run_detect_deadlock());
}

Task<> notify_after(Engine* engine, WaitQueue* queue, SimTime when) {
  co_await engine->sleep_for(when);
  queue->notify_all();
}

Task<> wait_and_stamp(Engine* engine, WaitQueue* queue,
                      std::uint64_t* stamp) {
  co_await queue->wait();
  *stamp = engine->now().femtoseconds();
}

TEST(WaitQueue, NotifyWakesAllWaitersAtNotifierTime) {
  Engine engine;
  WaitQueue queue(engine);
  std::uint64_t stamp1 = 0, stamp2 = 0;
  engine.spawn(wait_and_stamp(&engine, &queue, &stamp1), "w1");
  engine.spawn(wait_and_stamp(&engine, &queue, &stamp2), "w2");
  engine.spawn(notify_after(&engine, &queue, SimTime{500}), "n");
  engine.run();
  EXPECT_EQ(stamp1, 500u);
  EXPECT_EQ(stamp2, 500u);
}

TEST(WaitQueue, WaiterCountTracksParkedTasks) {
  Engine engine;
  WaitQueue queue(engine);
  engine.spawn(waits_forever(&queue), "w");
  engine.schedule_call(SimTime{1}, [&] {
    EXPECT_EQ(queue.waiter_count(), 1u);
    queue.notify_all();
    EXPECT_EQ(queue.waiter_count(), 0u);
  });
  engine.run();
}

TEST(Engine, EqualTimeCallsStayFifoUnderHeapChurn) {
  // Regression test for the move-heap swap: equal-timestamp events must
  // fire in scheduling order even while the heap is churning (pops
  // interleaved with pushes exercise both sift directions). Each batch
  // schedules its members out of a callback, so insertion happens at many
  // different heap shapes.
  Engine engine;
  std::vector<int> order;
  for (int batch = 0; batch < 8; ++batch) {
    engine.schedule_call(SimTime{static_cast<std::uint64_t>(batch) * 100},
                         [&engine, &order, batch] {
                           const SimTime when{
                               static_cast<std::uint64_t>(batch) * 100 + 50};
                           for (int i = 0; i < 16; ++i) {
                             engine.schedule_call(when, [&order, batch, i] {
                               order.push_back(batch * 16 + i);
                             });
                           }
                         });
  }
  engine.run();
  ASSERT_EQ(order.size(), 8u * 16u);
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], static_cast<int>(i));
}

TEST(Engine, PerturbedEqualTimeOrderIsSeedReproducible) {
  // Under perturbation the equal-time tie-break is a seeded permutation:
  // the same seed must replay the identical order, and some seed must
  // produce a non-FIFO order (otherwise perturbation explores nothing).
  const auto run_once = [](std::uint64_t seed) {
    Engine engine;
    engine.enable_perturbation(PerturbConfig{seed, SimTime::zero()});
    std::vector<int> order;
    for (int i = 0; i < 12; ++i) {
      engine.schedule_call(SimTime{100}, [&order, i] { order.push_back(i); });
    }
    engine.run();
    return order;
  };
  bool any_permuted = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::vector<int> first = run_once(seed);
    EXPECT_EQ(first, run_once(seed)) << "seed " << seed;
    std::vector<int> fifo(12);
    for (int i = 0; i < 12; ++i) fifo[static_cast<std::size_t>(i)] = i;
    if (first != fifo) any_permuted = true;
  }
  EXPECT_TRUE(any_permuted);
}

TEST(Engine, ThrowingCallableLeavesEngineRunnable) {
  // Regression: drain() used to set running_ = true and only reset it on
  // the normal exit path, so a throwing event handler latched the engine
  // into "running" forever and every later run() died on its !running_
  // precondition. The scope guard must reset the flag on the exception
  // path too.
  Engine engine;
  engine.schedule_call(SimTime{10}, [] {
    throw std::runtime_error("handler boom");
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
  bool ran_after = false;
  engine.schedule_call(engine.now() + SimTime{5}, [&] { ran_after = true; });
  engine.run();  // must not abort on a stale running_ flag
  EXPECT_TRUE(ran_after);
}

Task<> throws_after(Engine* engine, SimTime delay, const char* what) {
  co_await engine->sleep_for(delay);
  throw std::runtime_error(what);
}

TEST(Engine, RunDetectDeadlockSurfacesRootExceptionOverDeadlock) {
  // Regression: a root task completing *with an exception* while another
  // root is stuck used to be swallowed -- run_detect_deadlock() saw "some
  // root unfinished", returned false, and the exception vanished with the
  // cleared roots. The exception is the more specific diagnosis of the
  // double fault and must be rethrown.
  Engine engine;
  WaitQueue queue(engine);
  engine.spawn(throws_after(&engine, SimTime{5}, "root boom"), "thrower");
  engine.spawn(waits_forever(&queue), "stuck");
  try {
    (void)engine.run_detect_deadlock();
    FAIL() << "expected the root exception to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "root boom");
  }
}

TEST(Engine, RunSurfacesRootExceptionOverDeadlock) {
  // run() settles its roots like run_detect_deadlock(): on the same double
  // fault it rethrows the root exception, not the deadlock report.
  Engine engine;
  WaitQueue queue(engine);
  engine.spawn(waits_forever(&queue), "stuck");
  engine.spawn(throws_after(&engine, SimTime{5}, "root boom"), "thrower");
  try {
    engine.run();
    FAIL() << "expected the root exception to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "root boom");
  }
}

TEST(Engine, RunsAgainAfterDeadlock) {
  // A deadlocked run() releases its stuck roots, so the next run() reports
  // only its own tasks.
  Engine engine;
  WaitQueue queue(engine);
  engine.spawn(waits_forever(&queue), "stuck");
  EXPECT_THROW(engine.run(), std::runtime_error);
  std::vector<int> order;
  engine.spawn(sleep_then_record(&engine, SimTime{5}, 1, &order), "ok");
  EXPECT_NO_THROW(engine.run());
  EXPECT_EQ(order, std::vector<int>{1});
}

TEST(Engine, RunDetectDeadlockRethrowsFirstRootExceptionInSpawnOrder) {
  Engine engine;
  engine.spawn(throws_after(&engine, SimTime{9}, "second spawned"), "late");
  engine.spawn(throws_after(&engine, SimTime{3}, "first spawned"), "early");
  try {
    (void)engine.run_detect_deadlock();
    FAIL() << "expected a root exception";
  } catch (const std::runtime_error& e) {
    // Spawn order, not completion order: "late" was spawned first.
    EXPECT_STREQ(e.what(), "second spawned");
  }
}

TEST(Engine, PerturbationDelayClampsNearTimeMax) {
  // Regression: the injected perturbation delay was added with SimTime's
  // checked +=, so an event legally scheduled near SimTime::max() could
  // abort on overflow purely because the testing mode drew a large delay.
  // The delay must clamp to the available headroom instead.
  Engine engine;
  engine.enable_perturbation(PerturbConfig{123, SimTime::from_ns(1000)});
  bool fired = false;
  engine.schedule_call(SimTime::max() - SimTime{5}, [&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_GE(engine.now(), SimTime::max() - SimTime{5});
}

TEST(Engine, PerturbationClampDoesNotShiftTheDelayStream) {
  // The clamp must happen after the RNG draw, so an earlier clamped event
  // does not change which delays later events receive (seed
  // reproducibility of the whole trace, clamped or not). Both runs push a
  // lead event then a probe; only the lead's position differs, so the
  // probe's injected delay must be identical.
  const auto probe_delay = [](SimTime lead_when) {
    Engine engine;
    engine.enable_perturbation(PerturbConfig{99, SimTime::from_ns(10)});
    engine.schedule_call(lead_when, [] {});
    SimTime fired_at;
    engine.schedule_call(SimTime{1000}, [&engine, &fired_at] {
      fired_at = engine.now();
    });
    engine.run();
    return fired_at.femtoseconds() - 1000;
  };
  EXPECT_EQ(probe_delay(SimTime::max() - SimTime{1}),  // clamped lead
            probe_delay(SimTime{2}));                  // ordinary lead
}

TEST(EngineDeathTest, UnperturbedTimeOverflowStillAborts) {
  // The clamp is perturbation-specific: ordinary virtual-time arithmetic
  // keeps its checked-overflow contract.
  EXPECT_DEATH(
      {
        Engine engine;
        engine.schedule_call(SimTime{1}, [&engine] {
          (void)engine.sleep_for(SimTime::max());  // now() + max overflows
        });
        engine.run();
      },
      "invariant");
}

TEST(Engine, DeterministicAcrossRuns) {
  const auto run_once = [] {
    Engine engine;
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      engine.spawn(
          sleep_then_record(&engine, SimTime{static_cast<std::uint64_t>(
                                         (i * 37) % 7)},
                            i, &order),
          "t");
    }
    engine.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- callable slab ------------------------------------------------------

/// Parks the awaiting coroutine by handing its handle to the test, which
/// resumes it through Engine::schedule_resume.
struct Park {
  std::vector<std::coroutine_handle<>>* parked;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { parked->push_back(h); }
  void await_resume() const noexcept {}
};

Task<> park_then_record(std::vector<std::coroutine_handle<>>* parked, int id,
                        std::vector<int>* order) {
  co_await Park{parked};
  order->push_back(id);
}

/// Schedules 12 equal-time events at t=20, alternating resumes of parked
/// tasks (even ids) and slab callables (odd ids), and returns the order in
/// which they fired.
std::vector<int> interleaved_order(const PerturbConfig* perturb) {
  Engine engine;
  if (perturb != nullptr) engine.enable_perturbation(*perturb);
  std::vector<std::coroutine_handle<>> parked;
  std::vector<int> order;
  for (int id = 0; id < 12; id += 2)
    engine.spawn(park_then_record(&parked, id, &order), "parked");
  engine.schedule_call(SimTime{10}, [&] {
    for (int id = 0; id < 12; ++id) {
      if (id % 2 == 0) {
        engine.schedule_resume(SimTime{20},
                               parked[static_cast<std::size_t>(id / 2)]);
      } else {
        engine.schedule_call(SimTime{20}, [&order, id] { order.push_back(id); });
      }
    }
  });
  engine.run();
  return order;
}

TEST(EngineCallSlab, EqualTimeCallsAndResumesFireInScheduleOrder) {
  std::vector<int> fifo(12);
  for (int i = 0; i < 12; ++i) fifo[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(interleaved_order(nullptr), fifo);
}

TEST(EngineCallSlab, PerturbedInterleaveReproducesFromTheSeed) {
  bool any_permuted = false;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const PerturbConfig config{seed, SimTime::zero()};
    const std::vector<int> first = interleaved_order(&config);
    EXPECT_EQ(first, interleaved_order(&config)) << "seed " << seed;
    std::vector<int> sorted = first;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 12; ++i)
      EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i) << "seed " << seed;
    if (first != interleaved_order(nullptr)) any_permuted = true;
  }
  EXPECT_TRUE(any_permuted);
}

TEST(EngineCallSlab, CallableSchedulingAtNowKeepsItsOwnCaptures) {
  // Each link schedules a burst of callables at now() -- reusing the slot
  // it was dispatched from and growing the slab -- then reads its own
  // capture. The running callable must not live in the slab it grows, and
  // draining callables allocates no coroutine frame.
  Engine engine;
  std::vector<std::string> seen;
  int fired = 0;
  struct Link {
    Engine* engine;
    std::vector<std::string>* seen;
    int* fired;
    int depth;
    std::shared_ptr<std::string> name;
    void operator()() {
      ++*fired;
      if (depth > 0) {
        for (int i = 0; i < 40; ++i) {
          engine->schedule_call(engine->now(), [fired = fired] { ++*fired; });
        }
        engine->schedule_call(
            engine->now(),
            Link{engine, seen, fired, depth - 1,
                 std::make_shared<std::string>(*name +
                                               std::to_string(depth))});
      }
      seen->push_back(*name);
    }
  };
  engine.schedule_call(SimTime{5},
                       Link{&engine, &seen, &fired, 6,
                            std::make_shared<std::string>(40, 'x')});
  const std::uint64_t frames0 = frame_arena_stats().allocs;
  engine.run();
  EXPECT_EQ(frame_arena_stats().allocs - frames0, 0u);
  EXPECT_EQ(fired, 7 + 6 * 40);
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen.front(), std::string(40, 'x'));
  EXPECT_EQ(seen.back(), std::string(40, 'x') + "654321");
  EXPECT_EQ(engine.now(), SimTime{5});
}

/// Counts live instances: every constructor increments, the destructor
/// decrements, so a leak leaves it positive and a double destroy negative.
struct LiveCount {
  int* live;
  explicit LiveCount(int* l) : live(l) { ++*live; }
  LiveCount(const LiveCount& o) : live(o.live) { ++*live; }
  LiveCount(LiveCount&& o) noexcept : live(o.live) { ++*live; }
  LiveCount& operator=(const LiveCount&) = delete;
  ~LiveCount() { --*live; }
};

TEST(EngineCallSlab, OversizedCaptureDestroyedExactlyOnce) {
  int live = 0;
  int calls = 0;
  {
    Engine engine;
    std::array<std::uint64_t, 16> big{};
    big[15] = 99;
    engine.schedule_call(SimTime{3},
                         [token = LiveCount(&live), big, &calls] {
                           calls += big[15] == 99 ? 1 : 100;
                         });
    EXPECT_EQ(live, 1);
    engine.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(live, 0);
  }
  EXPECT_EQ(live, 0);
}

TEST(EngineCallSlab, ThrowingCallableKeepsPendingCallables) {
  // A callable throws while others are parked in the slab: the throw frees
  // only its own slot, the pending ones survive to the next run, and later
  // schedule_calls reuse the freed slots.
  int live = 0;
  Engine engine;
  std::vector<int> ran;
  engine.schedule_call(SimTime{10},
                       [] { throw std::runtime_error("handler boom"); });
  for (int i = 0; i < 4; ++i) {
    engine.schedule_call(SimTime{20 + static_cast<std::uint64_t>(i)},
                         [&ran, i, token = LiveCount(&live)] {
                           ran.push_back(i);
                         });
  }
  EXPECT_THROW(engine.run(), std::runtime_error);
  EXPECT_TRUE(ran.empty());
  EXPECT_EQ(live, 4);
  engine.schedule_call(engine.now() + SimTime{1}, [&ran] { ran.push_back(9); });
  engine.run();
  EXPECT_EQ(ran, (std::vector<int>{9, 0, 1, 2, 3}));
  EXPECT_EQ(live, 0);
  EXPECT_EQ(engine.events_processed(), 6u);
}

TEST(EngineCallSlab, DestroyedEngineFreesPendingCallables) {
  // Never-run callables, small and large captures, are destroyed with the
  // engine (the asan build reports any leak).
  int live = 0;
  {
    Engine engine;
    for (int i = 0; i < 8; ++i) {
      engine.schedule_call(SimTime{static_cast<std::uint64_t>(i)},
                           [token = LiveCount(&live),
                            owned = std::make_shared<int>(i)] {});
      engine.schedule_call(SimTime{static_cast<std::uint64_t>(i)},
                           [token = LiveCount(&live),
                            big = std::array<std::uint64_t, 16>{},
                            text = std::string(64, 'y')] {});
    }
    EXPECT_EQ(live, 16);
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace scc::sim
