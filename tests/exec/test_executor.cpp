// Tests for the host-thread parallel executor: index coverage, result
// ordering, index-ordered exception propagation, and the --jobs CLI
// contract (src/exec/executor.hpp).
#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"

namespace scc::exec {
namespace {

TEST(Executor, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(default_jobs(), 1);
}

TEST(Executor, ResolveJobsMapsZeroToDefault) {
  EXPECT_EQ(resolve_jobs(0), default_jobs());
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
}

TEST(Executor, ForEachIndexCoversEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(101);
    for_each_index(hits.size(), jobs, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
  }
}

TEST(Executor, ZeroCountNeverInvokes) {
  bool called = false;
  for_each_index(0, 8, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Executor, JobsOneRunsInlineInIndexOrder) {
  // The serial path must be exactly the serial path: same thread, indices
  // ascending (an unsynchronized vector would race under real threads).
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> seen;
  for_each_index(32, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(i);
  });
  ASSERT_EQ(seen.size(), 32u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(Executor, ParallelMapReturnsResultsInIndexOrder) {
  for (const int jobs : {1, 2, 8}) {
    const std::vector<std::size_t> squares =
        parallel_map<std::size_t>(50, jobs,
                                  [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 50u);
    for (std::size_t i = 0; i < squares.size(); ++i)
      EXPECT_EQ(squares[i], i * i) << "jobs " << jobs;
  }
}

TEST(Executor, FirstExceptionByIndexWinsRegardlessOfSchedule) {
  // Indices 30 and 3 both throw; 30 is dispatched first and sleeps so a
  // completion-order policy would surface it, but the surfaced error must
  // be index 3's (what the serial run would have hit first).
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      for_each_index(40, 4, [&](std::size_t i) {
        if (i == 30) throw std::runtime_error("late index");
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          throw std::runtime_error("early index");
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "early index");
    }
  }
}

TEST(Executor, MoreJobsThanWorkStillCompletes) {
  std::atomic<int> calls{0};
  for_each_index(3, 64, [&](std::size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 3);
}

CliFlags parse_flags(const std::vector<const char*>& args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliFlags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Executor, JobsFlagAbsentMeansAuto) {
  EXPECT_EQ(jobs_flag(parse_flags({})), 0);
}

TEST(Executor, JobsFlagParsesPositiveValues) {
  EXPECT_EQ(jobs_flag(parse_flags({"--jobs=1"})), 1);
  EXPECT_EQ(jobs_flag(parse_flags({"--jobs=16"})), 16);
}

TEST(Executor, JobsFlagRejectsZeroNegativeAndGarbage) {
  for (const char* arg :
       {"--jobs=0", "--jobs=-2", "--jobs=abc", "--jobs=", "--jobs=4x"}) {
    EXPECT_THROW((void)jobs_flag(parse_flags({arg})), std::runtime_error)
        << arg;
  }
}

}  // namespace
}  // namespace scc::exec
