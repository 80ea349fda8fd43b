// Exact sample statistics: the reference the histogram tests compare the
// log-bucketed metrics::Histogram against.
#pragma once

#include <vector>

namespace scc {

/// Exact sample quantile with linear interpolation between order statistics
/// (the "type 7" definition: rank h = q * (n - 1)). q must be in [0, 1];
/// the sample must be non-empty; n == 1 returns the sole sample for every q.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

}  // namespace scc
