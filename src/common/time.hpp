// Simulation time: a strong type with femtosecond resolution.
//
// The SCC has three clock domains (cores at 533 MHz, mesh and DRAM at
// 800 MHz in the paper's "standard preset"). Femtoseconds keep conversion
// error negligible (one 533 MHz core cycle = 1,876,172,608 fs with < 1e-9
// relative error) while a 64-bit count still covers ~5 hours of virtual
// time -- far beyond any experiment in the paper.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>

#include "common/contracts.hpp"

namespace scc {

/// A point in (or duration of) virtual time, in femtoseconds.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::uint64_t femtoseconds) : fs_(femtoseconds) {}

  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::uint64_t>::max()};
  }
  /// Whether from_ns/from_us can represent the value: finite, >= 0 and
  /// below 2^64 fs once scaled (converting anything else to uint64_t is
  /// undefined behaviour). NaN fails the >= 0 test.
  static constexpr bool representable_ns(double ns) {
    return ns >= 0.0 && ns * 1e6 < 0x1p64;
  }
  static constexpr bool representable_us(double us) {
    return us >= 0.0 && us * 1e9 < 0x1p64;
  }
  static constexpr SimTime from_ns(double ns) {
    SCC_EXPECTS(representable_ns(ns));
    return SimTime{static_cast<std::uint64_t>(ns * 1e6)};
  }
  static constexpr SimTime from_us(double us) {
    SCC_EXPECTS(representable_us(us));
    return SimTime{static_cast<std::uint64_t>(us * 1e9)};
  }

  [[nodiscard]] constexpr std::uint64_t femtoseconds() const { return fs_; }
  [[nodiscard]] constexpr double ns() const { return static_cast<double>(fs_) * 1e-6; }
  [[nodiscard]] constexpr double us() const { return static_cast<double>(fs_) * 1e-9; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(fs_) * 1e-12; }
  [[nodiscard]] constexpr double seconds() const { return static_cast<double>(fs_) * 1e-15; }

  constexpr SimTime& operator+=(SimTime rhs) {
    SCC_ASSERT(fs_ <= max().fs_ - rhs.fs_);
    fs_ += rhs.fs_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime rhs) {
    SCC_ASSERT(fs_ >= rhs.fs_);
    fs_ -= rhs.fs_;
    return *this;
  }

  friend constexpr SimTime operator+(SimTime a, SimTime b) { return a += b; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return a -= b; }
  friend constexpr SimTime operator*(SimTime a, std::uint64_t k) {
    return SimTime{a.fs_ * k};
  }
  friend constexpr auto operator<=>(SimTime, SimTime) = default;

 private:
  std::uint64_t fs_ = 0;
};

/// One clock domain (e.g. the 533 MHz core clock). Converts cycle counts to
/// SimTime durations without accumulating per-cycle rounding error.
class Clock {
 public:
  constexpr Clock() = default;
  constexpr explicit Clock(double hz) : hz_(hz) {
    SCC_EXPECTS(hz > 0.0);
  }

  [[nodiscard]] constexpr double hz() const { return hz_; }

  /// Duration of `n` cycles of this clock.
  [[nodiscard]] SimTime cycles(std::uint64_t n) const {
    // 1e15 fs per second; use long double so 1e12 cycles stays exact enough.
    const long double fs = static_cast<long double>(n) * (1e15L / static_cast<long double>(hz_));
    return SimTime{static_cast<std::uint64_t>(fs)};
  }

  /// Number of whole cycles of this clock in `t` (rounded down).
  [[nodiscard]] std::uint64_t cycles_in(SimTime t) const {
    const long double c =
        static_cast<long double>(t.femtoseconds()) * static_cast<long double>(hz_) / 1e15L;
    return static_cast<std::uint64_t>(c);
  }

 private:
  double hz_ = 1e9;
};

}  // namespace scc
