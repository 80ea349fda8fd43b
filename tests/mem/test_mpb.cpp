#include "mem/mpb.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace scc::mem {
namespace {

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(seed)) & 0xFF);
  return v;
}

TEST(Mpb, GeometryDefaults) {
  const MpbStorage mpb(48);
  EXPECT_EQ(mpb.num_cores(), 48);
  EXPECT_EQ(mpb.bytes_per_core(), kMpbBytesPerCore);
}

TEST(Mpb, WriteReadRoundTrip) {
  MpbStorage mpb(4);
  const auto data = pattern(100);
  mpb.write({2, 10}, data);
  std::vector<std::byte> out(100);
  mpb.read({2, 10}, out);
  EXPECT_EQ(out, data);
}

TEST(Mpb, CoresAreIsolated) {
  MpbStorage mpb(2, 64);
  const auto a = pattern(64, 1);
  const auto b = pattern(64, 2);
  mpb.write({0, 0}, a);
  mpb.write({1, 0}, b);
  std::vector<std::byte> out(64);
  mpb.read({0, 0}, out);
  EXPECT_EQ(out, a);
  mpb.read({1, 0}, out);
  EXPECT_EQ(out, b);
}

TEST(Mpb, CopyBetweenCores) {
  MpbStorage mpb(3, 256);
  const auto data = pattern(128);
  mpb.write({0, 64}, data);
  mpb.copy({0, 64}, {2, 0}, 128);
  std::vector<std::byte> out(128);
  mpb.read({2, 0}, out);
  EXPECT_EQ(out, data);
}

TEST(Mpb, OverlappingCopyWithinCore) {
  MpbStorage mpb(1, 256);
  const auto data = pattern(64);
  mpb.write({0, 0}, data);
  mpb.copy({0, 0}, {0, 32}, 64);  // overlap handled via memmove
  std::vector<std::byte> out(64);
  mpb.read({0, 32}, out);
  EXPECT_EQ(out, data);
}

TEST(Mpb, ExactEndOfBufferAllowed) {
  MpbStorage mpb(1, 64);
  const auto data = pattern(32);
  mpb.write({0, 32}, data);  // [32, 64) fits exactly
  std::vector<std::byte> out(32);
  mpb.read({0, 32}, out);
  EXPECT_EQ(out, data);
}

TEST(MpbDeath, OutOfBoundsRejected) {
  MpbStorage mpb(1, 64);
  std::vector<std::byte> buf(65);
  EXPECT_DEATH(mpb.write({0, 0}, buf), "precondition");
  std::vector<std::byte> small(2);
  EXPECT_DEATH(mpb.write({0, 63}, small), "precondition");
}

TEST(MpbDeath, BadCoreRejected) {
  MpbStorage mpb(2, 64);
  std::vector<std::byte> buf(1);
  EXPECT_DEATH(mpb.write({2, 0}, buf), "precondition");
  EXPECT_DEATH(mpb.write({-1, 0}, buf), "precondition");
}

TEST(Mpb, ZeroByteOperationsAreNoops) {
  MpbStorage mpb(1, 64);
  mpb.write({0, 0}, {});
  std::vector<std::byte> empty;
  mpb.read({0, 0}, empty);
  SUCCEED();
}

}  // namespace
}  // namespace scc::mem
