#include "machine/flags.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"

namespace scc::machine {
namespace {

TEST(FlagFile, InitiallyZero) {
  sim::Engine engine;
  FlagFile flags(engine, 4, 8);
  for (int c = 0; c < 4; ++c)
    for (int i = 0; i < 8; ++i) EXPECT_EQ(flags.value({c, i}), 0);
}

TEST(FlagFile, DepositSetsValue) {
  sim::Engine engine;
  FlagFile flags(engine, 2, 4);
  flags.deposit({1, 2}, 7);
  EXPECT_EQ(flags.value({1, 2}), 7);
  EXPECT_EQ(flags.value({1, 1}), 0);
  EXPECT_EQ(flags.value({0, 2}), 0);
}

sim::Task<> wait_for_value(FlagFile* flags, FlagRef ref, FlagValue v,
                           bool* done) {
  while (flags->value(ref) != v) co_await flags->waiters(ref).wait();
  *done = true;
}

TEST(FlagFile, DepositWakesWaiters) {
  sim::Engine engine;
  FlagFile flags(engine, 1, 1);
  bool done = false;
  engine.spawn(wait_for_value(&flags, {0, 0}, 3, &done), "waiter");
  engine.schedule_call(SimTime{100}, [&] { flags.deposit({0, 0}, 3); });
  engine.run();
  EXPECT_TRUE(done);
}

TEST(FlagFile, WrongValueKeepsWaiting) {
  sim::Engine engine;
  FlagFile flags(engine, 1, 1);
  bool done = false;
  engine.spawn(wait_for_value(&flags, {0, 0}, 3, &done), "waiter");
  engine.schedule_call(SimTime{100}, [&] { flags.deposit({0, 0}, 2); });
  EXPECT_FALSE(engine.run_detect_deadlock());
  EXPECT_FALSE(done);
}

TEST(FlagFileDeath, OutOfRangeRejected) {
  sim::Engine engine;
  FlagFile flags(engine, 2, 4);
  EXPECT_DEATH(flags.deposit({2, 0}, 1), "precondition");
  EXPECT_DEATH(flags.deposit({0, 4}, 1), "precondition");
  EXPECT_DEATH(flags.deposit({-1, 0}, 1), "precondition");
}

}  // namespace
}  // namespace scc::machine
