#include "metrics/sampler.hpp"

#include <ostream>
#include <utility>

#include "common/contracts.hpp"
#include "common/string_util.hpp"
#include "sim/engine.hpp"

namespace scc::metrics {

void TimeSeries::write_csv(std::ostream& os) const {
  os << "t_fs";
  for (const auto& c : columns) os << ',' << c;
  os << '\n';
  for (const auto& row : rows) {
    os << row.t.femtoseconds();
    for (const auto v : row.values) os << ',' << v;
    os << '\n';
  }
}

void TimeSeries::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"scc-timeseries-v1\",\n";
  os << "  \"label\": \"" << json_escape(label) << "\",\n";
  os << "  \"interval_fs\": " << interval.femtoseconds() << ",\n";
  os << "  \"decimations\": " << decimations << ",\n";
  os << "  \"ticks\": " << ticks << ",\n";
  os << "  \"columns\": [\"t_fs\"";
  for (const auto& c : columns) os << ", \"" << json_escape(c) << '"';
  os << "],\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    [" << rows[i].t.femtoseconds();
    for (const auto v : rows[i].values) os << ", " << v;
    os << ']';
  }
  os << "\n  ]\n}\n";
}

Sampler::Sampler(SimTime interval, std::size_t max_rows)
    : max_rows_(max_rows) {
  SCC_EXPECTS(max_rows >= 2);
  series_.interval = interval;
}

void Sampler::add_column(std::string name,
                         std::function<std::uint64_t()> read) {
  SCC_EXPECTS(series_.rows.empty() && series_.ticks == 0);
  SCC_EXPECTS(static_cast<bool>(read));
  columns_.push_back(Column{std::move(name), std::move(read)});
}

void Sampler::attach(sim::Engine& engine) {
  SCC_EXPECTS(series_.interval > SimTime::zero());
  engine.set_probe(series_.interval, [this](SimTime t) { tick(t); });
}

void Sampler::tick(SimTime t) {
  const std::uint64_t index = tick_index_++;
  ++series_.ticks;
  if (index % stride_ != 0) return;
  TimeSeries::Row row;
  row.t = t;
  row.values.reserve(columns_.size());
  for (const auto& c : columns_) row.values.push_back(c.read());
  series_.rows.push_back(std::move(row));
  if (series_.rows.size() < max_rows_) return;
  // Deterministic decimation: keep rows at even positions (tick indices
  // divisible by the doubled stride) and accept half as often from now on.
  // Memory stays bounded by max_rows and the surviving rows depend only on
  // the tick count, not on when the overflow happened.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < series_.rows.size(); i += 2) {
    // Guard i == kept (always true for row 0): self-move-assignment would
    // leave the row's values vector empty.
    if (i != kept) series_.rows[kept] = std::move(series_.rows[i]);
    ++kept;
  }
  series_.rows.resize(kept);
  stride_ *= 2;
  ++series_.decimations;
}

TimeSeries Sampler::take() {
  TimeSeries out = std::move(series_);
  out.columns.clear();
  out.columns.reserve(columns_.size());
  for (const auto& c : columns_) out.columns.push_back(c.name);
  series_ = TimeSeries{};
  series_.label = out.label;
  series_.interval = out.interval;
  stride_ = 1;
  tick_index_ = 0;
  return out;
}

}  // namespace scc::metrics
