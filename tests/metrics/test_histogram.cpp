// HDR histogram determinism and accuracy: exact small values, bounded
// relative quantile error at every scale, exact merge (any split of a
// sample stream reproduces the serial state bit for bit), and the JSON
// export contract (non-finite statistics become null via json_number, so
// an empty histogram still writes a well-formed document).
#include "metrics/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/string_util.hpp"

namespace scc::metrics {
namespace {

std::string json_of(const Histogram& h) {
  std::ostringstream os;
  h.write_json_us(os);
  return os.str();
}

/// Deterministic value stream (splitmix64): no RNG seed plumbing needed,
/// same sequence on every platform.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(Histogram, EmptyExportsCountZeroAndNulls) {
  const Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  // The exact document: null, not nan, reaches the file for every
  // statistic an empty histogram cannot define.
  EXPECT_EQ(json_of(h),
            "{\"count\": 0, \"min_us\": null, \"mean_us\": null, "
            "\"p50_us\": null, \"p90_us\": null, \"p99_us\": null, "
            "\"p999_us\": null, \"max_us\": null}");
}

TEST(Histogram, JsonNumberMapsNonFiniteToNull) {
  // NaN/inf must never be printed bare (bare nan is invalid JSON and
  // breaks every downstream parser).
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(2.5), "2.5");
}

TEST(Histogram, SmallValuesAreExact) {
  // Values below kSubBuckets land in unit-width buckets: quantiles are
  // exact, not approximate.
  Histogram h;
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) h.record(v);
  EXPECT_EQ(h.count(), Histogram::kSubBuckets);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), Histogram::kSubBuckets - 1);
  EXPECT_EQ(h.value_at_quantile(0.0), 0u);
  EXPECT_EQ(h.value_at_quantile(1.0), Histogram::kSubBuckets - 1);
  // Median of 0..31: at least 16 values <= bucket -> bucket holding 15.
  EXPECT_EQ(h.value_at_quantile(0.5), 15u);
}

TEST(Histogram, SingleValueReportsItselfAtEveryQuantile) {
  Histogram h;
  h.record(123456789u);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.value_at_quantile(q), 123456789u) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.mean(), 123456789.0);
}

TEST(Histogram, BucketBoundsContainTheirValues) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{31},
        std::uint64_t{32}, std::uint64_t{33}, std::uint64_t{1000},
        std::uint64_t{1} << 40, (std::uint64_t{1} << 40) + 12345,
        std::numeric_limits<std::uint64_t>::max()}) {
    const std::size_t index = Histogram::bucket_index(v);
    EXPECT_LE(Histogram::bucket_lower(index), v) << v;
    EXPECT_GE(Histogram::bucket_upper(index), v) << v;
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(index)), index);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(index)), index);
  }
}

TEST(Histogram, QuantileTracksExactSampleQuantileWithinBucketError) {
  // Differential check against the exact type-7 quantile (common/stats):
  // the histogram's answer must stay within one sub-bucket's relative
  // width (2^-kSubBucketBits ~ 3.1%, plus interpolation slop) of the
  // exact order statistic, across several orders of magnitude.
  Histogram h;
  std::vector<double> exact;
  std::uint64_t x = 7;
  for (int i = 0; i < 20000; ++i) {
    x = mix64(x);
    // Skewed tail: mostly ~1e6, occasionally up to ~1e9.
    const std::uint64_t v = 1'000'000 + x % (1 + (i % 97 == 0 ? 1'000'000'000u
                                                              : 300'000u));
    h.record(v);
    exact.push_back(static_cast<double>(v));
  }
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double want = quantile(exact, q);
    const double got = static_cast<double>(h.value_at_quantile(q));
    EXPECT_NEAR(got, want, want * 0.04) << "q=" << q;
  }
}

TEST(Histogram, TailQuantileOfSmallSamplesIsTheExactMaximum) {
  // Regression: for q * count reaching the last rank -- p999 of anything
  // under 1000 samples, p99 under 100, q = 1.0 always -- the quantile IS
  // the maximum, which the histogram tracks exactly. The old walk returned
  // the midpoint of the maximum's bucket instead, under-reporting the tail
  // by up to half a bucket (~1.6%) on exactly the small per-cell sample
  // counts the conformance and traffic reports aggregate.
  for (const int n : {2, 7, 10, 99, 999}) {
    Histogram h;
    std::uint64_t x = 11;
    std::uint64_t top = 0;
    for (int i = 0; i < n; ++i) {
      x = mix64(x);
      const std::uint64_t v = 1'000'000 + x % 1'000'000;
      top = std::max(top, v);
      h.record(v);
    }
    EXPECT_EQ(h.value_at_quantile(0.999), top) << n << " samples";
    EXPECT_EQ(h.value_at_quantile(1.0), top) << n << " samples";
  }
}

TEST(Histogram, FullQuantileIsExactWhenMaxSharesItsBucket) {
  // 96 and 97 land in the same sub-bucket (width 2 at this scale): q = 1
  // must still report 97, not the shared bucket's midpoint 96.
  Histogram h;
  h.record(96);
  h.record(97);
  EXPECT_EQ(Histogram::bucket_index(96), Histogram::bucket_index(97));
  EXPECT_EQ(h.value_at_quantile(1.0), 97u);
  EXPECT_EQ(h.value_at_quantile(0.0), 96u);
}

TEST(Histogram, TinySampleQuantilesTrackTheirOrderStatistic) {
  // On tiny counts the type-7 interpolated quantile and the histogram's
  // rank convention (type 1: the ceil(q * n)-th order statistic)
  // legitimately diverge by whole inter-sample gaps, so the honest
  // differential is against the exact order statistic the rank targets:
  // within one sub-bucket width always, and EXACT at both extreme ranks.
  for (const int n : {2, 3, 5, 12, 37, 200}) {
    Histogram h;
    std::vector<std::uint64_t> sorted;
    std::uint64_t x = static_cast<std::uint64_t>(n) * 131;
    for (int i = 0; i < n; ++i) {
      x = mix64(x);
      const std::uint64_t v = 500'000 + x % 4'000'000;
      h.record(v);
      sorted.push_back(v);
    }
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
      const auto rank = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 std::ceil(q * static_cast<double>(n))));
      const std::uint64_t want = sorted[static_cast<std::size_t>(rank - 1)];
      const auto got = static_cast<double>(h.value_at_quantile(q));
      if (rank == 1 || rank == static_cast<std::uint64_t>(n)) {
        EXPECT_EQ(h.value_at_quantile(q), want) << "n=" << n << " q=" << q;
      } else {
        // One sub-bucket width at this magnitude: want / 2^5, +1 for the
        // integer bucket bounds.
        const double tol =
            static_cast<double>(want) / Histogram::kSubBuckets + 1.0;
        EXPECT_NEAR(got, static_cast<double>(want), tol)
            << "n=" << n << " q=" << q;
      }
    }
  }
}

TEST(Histogram, QuantilesAreMonotoneInQ) {
  Histogram h;
  std::uint64_t x = 3;
  for (int i = 0; i < 257; ++i) {
    x = mix64(x);
    h.record(x % 50'000'000);
  }
  std::uint64_t prev = 0;
  for (const double q :
       {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const std::uint64_t v = h.value_at_quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_EQ(h.value_at_quantile(0.0), h.min());
  EXPECT_EQ(h.value_at_quantile(1.0), h.max());
}

TEST(HistogramDeathTest, QuantileOutsideUnitIntervalAborts) {
  // The q-domain contract is enforced, not saturated: a caller computing a
  // quantile from bad arithmetic (q = 1.001, q = -0.1) must crash with a
  // diagnostic rather than silently read the max.
  Histogram h;
  h.record(42);
  EXPECT_DEATH((void)h.value_at_quantile(-0.001), "precondition");
  EXPECT_DEATH((void)h.value_at_quantile(1.001), "precondition");
  EXPECT_DEATH((void)h.value_at_quantile(-1e9), "precondition");
  const Histogram empty;
  EXPECT_DEATH((void)empty.value_at_quantile(0.5), "precondition");
}

TEST(Histogram, MergeReproducesSerialStateExactly) {
  Histogram serial;
  Histogram parts[3];
  std::uint64_t x = 42;
  for (int i = 0; i < 5000; ++i) {
    x = mix64(x);
    const std::uint64_t v = x % 10'000'000;
    serial.record(v);
    parts[i % 3].record(v);
  }
  Histogram merged;
  merged.merge(parts[0]);
  merged.merge(parts[1]);
  merged.merge(parts[2]);
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_EQ(merged.sum(), serial.sum());
  EXPECT_EQ(merged.min(), serial.min());
  EXPECT_EQ(merged.max(), serial.max());
  EXPECT_EQ(merged.buckets(), serial.buckets());
  EXPECT_EQ(json_of(merged), json_of(serial));

  // And merge order is irrelevant (commutativity): the export bytes pin it.
  Histogram reversed;
  reversed.merge(parts[2]);
  reversed.merge(parts[0]);
  reversed.merge(parts[1]);
  EXPECT_EQ(json_of(reversed), json_of(serial));
}

TEST(Histogram, QuantileEdgeCasesMatchStatsQuantile) {
  // Satellite: common/stats quantile edge cases, differentially against
  // the histogram where both are exact (unit-width buckets).
  EXPECT_DOUBLE_EQ(quantile({5.0}, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile({5.0}, 0.73), 5.0);
  EXPECT_DOUBLE_EQ(quantile({5.0}, 1.0), 5.0);
  // Duplicates collapse: every quantile is the duplicated value.
  EXPECT_DOUBLE_EQ(quantile({3.0, 3.0, 3.0, 3.0}, 0.99), 3.0);
  // Type-7 interpolation: rank h = q * (n - 1) between order statistics.
  EXPECT_DOUBLE_EQ(quantile({10.0, 20.0}, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0, 20.0, 30.0}, 0.25), 7.5);

  Histogram h;
  for (const std::uint64_t v : {3u, 3u, 3u, 3u}) h.record(v);
  EXPECT_EQ(h.value_at_quantile(0.99), 3u);
}

}  // namespace
}  // namespace scc::metrics
