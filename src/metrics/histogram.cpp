#include "metrics/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "common/contracts.hpp"
#include "common/string_util.hpp"

namespace scc::metrics {

std::size_t Histogram::bucket_index(std::uint64_t value) {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  // The value's top kSubBucketBits + 1 bits select (power-of-two range,
  // linear sub-bucket); ranges below kSubBuckets were handled exactly above.
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - kSubBucketBits;
  const std::uint64_t sub = (value >> shift) - kSubBuckets;
  return static_cast<std::size_t>(kSubBuckets +
                                  static_cast<std::uint64_t>(shift) *
                                      kSubBuckets +
                                  sub);
}

std::uint64_t Histogram::bucket_lower(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::uint64_t shift = (index - kSubBuckets) / kSubBuckets;
  const std::uint64_t sub = (index - kSubBuckets) % kSubBuckets;
  return (kSubBuckets + sub) << shift;
}

std::uint64_t Histogram::bucket_upper(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::uint64_t shift = (index - kSubBuckets) / kSubBuckets;
  return bucket_lower(index) + ((std::uint64_t{1} << shift) - 1);
}

void Histogram::record(std::uint64_t value) {
  const std::size_t index = bucket_index(value);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
  sum_ += value;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  sum_ += other.sum_;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
}

std::uint64_t Histogram::min() const {
  SCC_EXPECTS(count_ > 0);
  return min_;
}

std::uint64_t Histogram::max() const {
  SCC_EXPECTS(count_ > 0);
  return max_;
}

double Histogram::mean() const {
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::value_at_quantile(double q) const {
  SCC_EXPECTS(count_ > 0);
  SCC_EXPECTS(q >= 0.0 && q <= 1.0);
  // Target rank in [1, count]: the ceil makes p0 the first value and p100
  // the last, and keeps the walk pure integer comparison after this line.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  // The extreme ranks are tracked exactly by record(); never report a
  // bucket estimate for them. rank == count covers every q above
  // (count - 1) / count, so a tail quantile asked of a small sample (p999
  // of fewer than 1000 values) is the true maximum, not the midpoint of
  // the maximum's bucket -- the midpoint systematically under-reported the
  // tail by up to half a bucket width (~1.6%), and broke the documented
  // "q = 1 -> max() exactly" contract whenever the maximum shared its
  // bucket with smaller samples.
  if (rank <= 1) return min_;
  if (rank >= count_) return max_;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    seen += buckets_[i];
    if (seen >= rank) {
      const std::uint64_t lower = bucket_lower(i);
      const std::uint64_t upper = bucket_upper(i);
      const std::uint64_t in_bucket = buckets_[i];
      const std::uint64_t pos = rank - (seen - in_bucket);  // 1..in_bucket
      // Rank-interpolate within the bucket, spreading its samples evenly
      // over [lower, upper] (the type-7 convention applied to the only
      // information the bucket retains). A lone sample still gets the
      // midpoint -- the minimax estimate of its position. Interpolation in
      // double: bucket widths near 2^63 would overflow the integer
      // product, and the IEEE result is platform-deterministic.
      const std::uint64_t est =
          in_bucket == 1
              ? lower + (upper - lower) / 2
              : lower + static_cast<std::uint64_t>(
                            static_cast<double>(upper - lower) *
                            static_cast<double>(pos - 1) /
                            static_cast<double>(in_bucket - 1));
      return std::clamp(est, min_, max_);
    }
  }
  return max_;  // unreachable when counts are consistent
}

void Histogram::write_json_us(std::ostream& os) const {
  constexpr double kFsPerUs = 1e9;
  const auto us = [&](std::uint64_t fs) {
    return json_number(static_cast<double>(fs) / kFsPerUs);
  };
  os << "{\"count\": " << count_;
  if (count_ == 0) {
    // No samples: every derived statistic is undefined; json_number turns
    // the NaNs into null, keeping the document well-formed.
    os << ", \"min_us\": null, \"mean_us\": "
       << json_number(mean())
       << ", \"p50_us\": null, \"p90_us\": null, \"p99_us\": null"
       << ", \"p999_us\": null, \"max_us\": null}";
    return;
  }
  os << ", \"min_us\": " << us(min_)
     << ", \"mean_us\": " << json_number(mean() / kFsPerUs)
     << ", \"p50_us\": " << us(value_at_quantile(0.50))
     << ", \"p90_us\": " << us(value_at_quantile(0.90))
     << ", \"p99_us\": " << us(value_at_quantile(0.99))
     << ", \"p999_us\": " << us(value_at_quantile(0.999))
     << ", \"max_us\": " << us(max_) << '}';
}

}  // namespace scc::metrics
