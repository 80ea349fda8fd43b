#include "harness/sweep.hpp"

#include <algorithm>
#include <vector>

#include "common/contracts.hpp"
#include "common/string_util.hpp"
#include "exec/executor.hpp"

namespace scc::harness {

namespace {

std::size_t variant_index(const SweepResult& r, PaperVariant v) {
  const auto it = std::find(r.variants.begin(), r.variants.end(), v);
  SCC_EXPECTS(it != r.variants.end());
  return static_cast<std::size_t>(it - r.variants.begin());
}

}  // namespace

double SweepResult::mean_speedup_vs_blocking(PaperVariant v) const {
  const std::size_t base = variant_index(*this, PaperVariant::kBlocking);
  const std::size_t idx = variant_index(*this, v);
  double sum = 0.0;
  for (const SweepPoint& pt : points)
    sum += pt.latency_us[base] / pt.latency_us[idx];
  return sum / static_cast<double>(points.size());
}

std::pair<double, std::size_t> SweepResult::max_speedup_vs_blocking(
    PaperVariant v) const {
  const std::size_t base = variant_index(*this, PaperVariant::kBlocking);
  const std::size_t idx = variant_index(*this, v);
  double best = 0.0;
  std::size_t at = 0;
  for (const SweepPoint& pt : points) {
    const double s = pt.latency_us[base] / pt.latency_us[idx];
    if (s > best) {
      best = s;
      at = pt.elements;
    }
  }
  return {best, at};
}

Table SweepResult::to_table() const {
  std::vector<std::string> header{"elements"};
  for (const PaperVariant v : variants)
    header.emplace_back(std::string(variant_name(v)) + "_us");
  Table table(std::move(header));
  for (const SweepPoint& pt : points) {
    std::vector<std::string> row{strprintf("%zu", pt.elements)};
    for (const double us : pt.latency_us) row.push_back(strprintf("%.2f", us));
    table.add_row(std::move(row));
  }
  return table;
}

RunSpec cell_spec(const SweepSpec& spec, PaperVariant variant,
                  std::size_t elements) {
  RunSpec run = spec.run;
  run.variant = variant;
  run.elements = elements;
  if (!stack_based(variant)) run.algo.reset();
  return run;
}

SweepResult run_sweep(const SweepSpec& spec) {
  SCC_EXPECTS(spec.from <= spec.to);
  SCC_EXPECTS(spec.step >= 1);
  SCC_EXPECTS(spec.jobs >= 0);
  SweepResult result;
  result.variants = spec.variants.empty() ? variants_for(spec.run.collective)
                                          : spec.variants;

  // Flatten the (size x variant) grid into one job list; every cell is an
  // independent simulation on its own machine.
  std::vector<std::size_t> sizes;
  for (std::size_t n = spec.from; n <= spec.to; n += spec.step) {
    sizes.push_back(n);
  }
  const std::size_t stride = result.variants.size();

  // A shared recorder is mutated by every traced run: serialize then, so
  // the trace stream keeps its deterministic serial order.
  const int jobs = spec.run.trace != nullptr ? 1 : spec.jobs;
  const std::vector<RunResult> cells = exec::parallel_map<RunResult>(
      sizes.size() * stride, jobs,
      [&](std::size_t job) {
        return run_collective(cell_spec(spec, result.variants[job % stride],
                                        sizes[job / stride]));
      });

  // Deterministic merge: spec order (sizes outer, variants inner), exactly
  // the order the serial loop produced and the order absorb() prefixes
  // were historically applied in.
  result.histograms.resize(stride);
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    SweepPoint point;
    point.elements = sizes[si];
    for (std::size_t vi = 0; vi < stride; ++vi) {
      const RunResult& rr = cells[si * stride + vi];
      point.latency_us.push_back(rr.mean_latency.us());
      for (const SimTime s : rr.latencies) {
        result.histograms[vi].record_time(s);
      }
      if (rr.metrics) {
        result.metrics.absorb(
            *rr.metrics,
            strprintf("point/%zu/%s/", sizes[si],
                      std::string(variant_name(result.variants[vi])).c_str()));
      }
    }
    result.points.push_back(std::move(point));
  }
  return result;
}

}  // namespace scc::harness
