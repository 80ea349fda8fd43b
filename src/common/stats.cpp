#include "common/stats.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace scc {

double quantile(std::vector<double> samples, double q) {
  SCC_EXPECTS(!samples.empty());
  SCC_EXPECTS(q >= 0.0 && q <= 1.0);
  std::sort(samples.begin(), samples.end());
  const double h = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= samples.size()) return samples.back();
  const double frac = h - static_cast<double>(lo);
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

}  // namespace scc
