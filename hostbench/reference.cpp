// The reference slice: a fixed piece of host work, in the benchmark's own
// files and untouched by changes to the simulator, timed beside every op so
// the driver can tell how fast the shared host is running at that moment.
//
// It is one dependent chain of integer multiplies, shifts and data-dependent
// branches, with no memory traffic. On a shared 4-vCPU host the
// simulator's host time tracked it more closely than slices that also
// exercised a heap, std::function and 2 or 16 MiB tables at random: over
// ten minutes of fig9_sweep passes it correlated 0.94 with the pass time.
// Scaled by it (at_reference_speed), the spread of 30 s windows fell from
// 0.06-0.36 to at most 0.07 (hostbench/README.md, "Host times at reference
// speed").
#include <cmath>
#include <cstdint>

#include "bench.hpp"

namespace hostbench {

namespace {

constexpr int kSteps = 150000;

std::uint64_t slice() {
  std::uint64_t a = 0x1234, b = 99;
  for (int i = 0; i < kSteps; ++i) {
    a = (a ^ b) * 0x9e3779b97f4a7c15ULL;
    a ^= a >> 29;
    if (a & 1)
      b += a >> 7;
    else
      b ^= a << 3;
  }
  return a + b;
}

}  // namespace

double at_reference_speed(double host_time, double slice_ms) {
  return host_time * std::pow(kReferenceSliceMs / slice_ms, kSpeedExponent);
}

double reference_slice_ms() {
  const auto t0 = Clock::now();
  volatile std::uint64_t sink = slice();
  (void)sink;
  return ms_between(t0, Clock::now());
}

}  // namespace hostbench
