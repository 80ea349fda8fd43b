// Exact simulated-time pins for the schedules that no committed baseline
// and no hostbench digest covers: Scatter, Gather and Allgatherv on the
// three RCCE-family layers, and the Bruck / recursive algorithm variants
// plus the binomial Broadcast / Allreduce paths on the blocking layer at a
// non-power-of-two core count (the fold/unfold and rotation paths). A
// kernel refactor that moves a charge or a peer shows up here as a changed
// mean latency or event count (round gates cost nothing on a blocking run;
// the nbc tiers and digests cover them). The last three tests pin the
// host's work -- events dispatched and coroutine frames allocated -- on the
// paper's spotlight Allreduce and on two-lane non-blocking traffic, so a
// change that adds either to the blocking hot path or to the progress
// engine's steps fails. The spotlight and a cache-heavy Alltoall also pin
// their heap allocations (counted by the operator new this file replaces),
// so a per-transfer, per-event, per-touch or per-page allocation on the
// machine model's path fails too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/traffic.hpp"
#include "sim/frame_arena.hpp"

namespace {
constinit thread_local std::uint64_t tl_heap_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++tl_heap_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

// The nothrow forms too (std::stable_sort's buffer uses them): a sanitizer
// runtime replaces them itself, and its blocks must not reach free().
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++tl_heap_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace scc::harness {
namespace {

struct Pin {
  Collective collective;
  PaperVariant variant;
  std::optional<coll::Algo> algo;
  int p;  // 7: 7x1 tiles, 1 core per tile; 8: 2x2 tiles, 2 cores per tile
  std::size_t n;
  std::uint64_t mean_fs;
  std::uint64_t events;
};

constexpr auto kBlk = PaperVariant::kBlocking;
constexpr auto kIrc = PaperVariant::kIrcce;
constexpr auto kLw = PaperVariant::kLightweight;
constexpr std::optional<coll::Algo> kPaper;

// clang-format off
const Pin kPins[] = {
    {Collective::kScatter, kBlk, kPaper, 7, 5, 26495717605, 445},
    {Collective::kScatter, kBlk, kPaper, 7, 300, 185976017794, 409},
    {Collective::kScatter, kBlk, kPaper, 8, 5, 23416336743, 510},
    {Collective::kScatter, kBlk, kPaper, 8, 300, 214794029044, 510},
    {Collective::kScatter, kIrc, kPaper, 7, 5, 27621421168, 445},
    {Collective::kScatter, kIrc, kPaper, 7, 300, 187101721357, 409},
    {Collective::kScatter, kIrc, kPaper, 8, 5, 24542040306, 510},
    {Collective::kScatter, kIrc, kPaper, 8, 300, 215919732607, 510},
    {Collective::kScatter, kLw, kPaper, 7, 5, 21317481205, 445},
    {Collective::kScatter, kLw, kPaper, 7, 300, 180797781394, 409},
    {Collective::kScatter, kLw, kPaper, 8, 5, 18238100343, 510},
    {Collective::kScatter, kLw, kPaper, 8, 300, 209615792644, 510},
    {Collective::kGather, kBlk, kPaper, 7, 5, 22805961514, 441},
    {Collective::kGather, kBlk, kPaper, 7, 300, 166608963394, 405},
    {Collective::kGather, kBlk, kPaper, 8, 5, 22339451195, 510},
    {Collective::kGather, kBlk, kPaper, 8, 300, 238936655692, 510},
    {Collective::kGather, kIrc, kPaper, 7, 5, 23931665077, 441},
    {Collective::kGather, kIrc, kPaper, 7, 300, 167734666957, 405},
    {Collective::kGather, kIrc, kPaper, 8, 5, 23465154758, 510},
    {Collective::kGather, kIrc, kPaper, 8, 300, 240062359255, 510},
    {Collective::kGather, kLw, kPaper, 7, 5, 17627725114, 441},
    {Collective::kGather, kLw, kPaper, 7, 300, 161430726994, 405},
    {Collective::kGather, kLw, kPaper, 8, 5, 17161214795, 510},
    {Collective::kGather, kLw, kPaper, 8, 300, 233758419292, 510},
    {Collective::kAllgatherv, kBlk, kPaper, 7, 5, 81320877029, 2403},
    {Collective::kAllgatherv, kBlk, kPaper, 7, 300, 268563606867, 2293},
    {Collective::kAllgatherv, kBlk, kPaper, 8, 5, 101556017724, 3183},
    {Collective::kAllgatherv, kBlk, kPaper, 8, 300, 334291444550, 3069},
    {Collective::kAllgatherv, kIrc, kPaper, 7, 5, 67103442712, 2250},
    {Collective::kAllgatherv, kIrc, kPaper, 7, 300, 164836468044, 2220},
    {Collective::kAllgatherv, kIrc, kPaper, 8, 5, 77037176284, 2952},
    {Collective::kAllgatherv, kIrc, kPaper, 8, 300, 190975229760, 2991},
    {Collective::kAllgatherv, kLw, kPaper, 7, 5, 44289183798, 2273},
    {Collective::kAllgatherv, kLw, kPaper, 7, 300, 145924648155, 2241},
    {Collective::kAllgatherv, kLw, kPaper, 8, 5, 51221041197, 2995},
    {Collective::kAllgatherv, kLw, kPaper, 8, 300, 169962096550, 2993},
    {Collective::kAllgather, kBlk, coll::Algo::kBruck, 7, 5, 131127734377, 1294},
    {Collective::kAllgather, kBlk, coll::Algo::kBruck, 7, 300, 686949497983, 1168},
    {Collective::kAllgather, kBlk, coll::Algo::kRecursiveDoubling, 7, 5, 50155379876, 919},
    {Collective::kAllgather, kBlk, coll::Algo::kRecursiveDoubling, 7, 300, 555248935197, 1135},
    {Collective::kAlltoall, kBlk, coll::Algo::kBruck, 7, 5, 136332846919, 2407},
    {Collective::kAlltoall, kBlk, coll::Algo::kBruck, 7, 300, 1046918212792, 2281},
    {Collective::kReduceScatter, kBlk, coll::Algo::kRecursiveHalving, 7, 5, 36713958673, 854},
    {Collective::kReduceScatter, kBlk, coll::Algo::kRecursiveHalving, 7, 300, 125316772927, 1031},
    {Collective::kAllreduce, kBlk, coll::Algo::kRecursiveDoubling, 7, 5, 48555046841, 1063},
    {Collective::kAllreduce, kBlk, coll::Algo::kRecursiveDoubling, 7, 300, 205414333911, 979},
    {Collective::kBroadcast, kBlk, kPaper, 7, 5, 25254310476, 376},
    {Collective::kBroadcast, kBlk, kPaper, 7, 300, 153124957685, 2696},
    {Collective::kAllreduce, kBlk, kPaper, 7, 5, 46184760724, 819},
    {Collective::kAllreduce, kBlk, kPaper, 7, 300, 233367279382, 5267},
};
// clang-format on

RunSpec spec_of(const Pin& pin) {
  RunSpec spec;
  spec.collective = pin.collective;
  spec.variant = pin.variant;
  spec.algo = pin.algo;
  spec.elements = pin.n;
  spec.repetitions = 2;
  spec.warmup = 1;
  const bool line = pin.p == 7;
  spec.config.tiles_x = line ? 7 : 2;
  spec.config.tiles_y = line ? 1 : 2;
  spec.config.cores_per_tile = line ? 1 : 2;
  return spec;
}

TEST(TimingPins, UnbaselinedSchedulesKeepTheirSimulatedTime) {
  for (const Pin& pin : kPins) {
    const RunSpec spec = spec_of(pin);
    ASSERT_EQ(spec.config.num_cores(), pin.p);
    const RunResult r = run_collective(spec);
    const std::string label =
        std::string(collective_name(pin.collective)) + "/" +
        std::string(variant_name(pin.variant)) + " algo=" +
        std::string(pin.algo ? coll::algo_name(*pin.algo) : "paper") +
        " p=" + std::to_string(pin.p) + " n=" + std::to_string(pin.n);
    EXPECT_TRUE(r.verified) << label;
    EXPECT_EQ(r.mean_latency.femtoseconds(), pin.mean_fs) << label;
    EXPECT_EQ(r.events, pin.events) << label;
  }
}

// Frames are counted by sim::frame_arena_stats() on this thread (a serial
// run allocates every frame here), heap allocations by this file's operator
// new. The counts depend on how the compiler allocates coroutine frames and
// on the standard library; these are GCC 12's.
std::uint64_t frames_allocated() { return sim::frame_arena_stats().allocs; }

TEST(TimingPins, SpotlightAllreduceWork) {
  RunSpec spec;
  spec.collective = Collective::kAllreduce;
  spec.variant = PaperVariant::kLwBalanced;
  spec.elements = 552;
  spec.repetitions = 1;
  spec.warmup = 0;
  spec.verify = false;
  // A first run fills the frame arena's free lists, so the measured run's
  // heap count does not depend on what ran before it on this thread.
  (void)run_collective(spec);
  const std::uint64_t frames0 = frames_allocated();
  const std::uint64_t heap0 = tl_heap_allocs;
  const RunResult r = run_collective(spec);
  EXPECT_EQ(r.events, 85'444u);
  EXPECT_EQ(frames_allocated() - frames0, 56'784u);
  EXPECT_EQ(tl_heap_allocs - heap0, 809u);
}

TEST(TimingPins, CacheHeavyAlltoallHeap) {
  // Each core's p x n buffers (about 250 KB) fill its 256 KB cache model,
  // so a per-page or per-touch allocation in the model fails this pin.
  RunSpec spec;
  spec.collective = Collective::kAlltoall;
  spec.variant = PaperVariant::kLwBalanced;
  spec.elements = 650;
  spec.repetitions = 1;
  spec.warmup = 0;
  spec.verify = false;
  (void)run_collective(spec);  // fills the frame arena, as above
  const std::uint64_t heap0 = tl_heap_allocs;
  const RunResult r = run_collective(spec);
  EXPECT_EQ(r.events, 39'290u);
  EXPECT_EQ(tl_heap_allocs - heap0, 1'723u);
}

TEST(TimingPins, SerialAllreduceSweepFrames) {
  SweepSpec sweep;
  sweep.run.collective = Collective::kAllreduce;
  sweep.from = 540;
  sweep.to = 580;
  sweep.step = 20;
  sweep.run.repetitions = 1;
  sweep.run.warmup = 1;
  sweep.run.verify = false;
  sweep.jobs = 1;
  const std::uint64_t frames0 = frames_allocated();
  (void)run_sweep(sweep);
  EXPECT_EQ(frames_allocated() - frames0, 1'568'665u);
}

TEST(TimingPins, TrafficTwoLaneWork) {
  TrafficSpec spec;
  spec.lanes = 2;
  const std::uint64_t frames0 = frames_allocated();
  const TrafficResult r = run_traffic(spec);
  EXPECT_EQ(r.events, 31'501u);
  EXPECT_EQ(frames_allocated() - frames0, 30'562u);
}

}  // namespace
}  // namespace scc::harness
