// Deterministic sim-time flight recorder.
//
// PR 3's metrics registry is one cumulative snapshot at the end of a run;
// it cannot answer "when did link (2,1)->(3,1) saturate". The Sampler
// snapshots a set of named uint64 counter columns every Dt of *simulated*
// time: the engine fires a probe exactly at the virtual tick instants
// k * Dt (sim::Engine::set_probe), so sample k reflects every event with
// timestamp < k * Dt and nothing later -- a cadence defined by the virtual
// clock, not by host wall time, and therefore bit-identical run to run
// and for every --jobs value.
//
// Bounded memory: when the row buffer hits max_rows, every other row is
// dropped and the accepted cadence doubles (deterministic decimation --
// the kept rows are exactly the ticks whose index is a multiple of the new
// stride, so an unboundedly long run degrades resolution instead of
// growing memory, and the surviving rows are independent of when the
// overflow happened).
//
// Determinism contract: columns read counters; they must not mutate
// simulated state or charge time. Sampling on vs off changes no simulated
// result byte (pinned by the obs tier).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace scc::sim {
class Engine;
}

namespace scc::metrics {

/// Plain-data snapshot of a finished sampling session ("scc-timeseries-v1").
struct TimeSeries {
  struct Row {
    SimTime t;
    std::vector<std::uint64_t> values;  // one per column, column order
  };

  std::string label;
  SimTime interval;            // base cadence (zero: externally ticked)
  std::uint64_t decimations = 0;  // times the cadence doubled
  std::uint64_t ticks = 0;        // ticks offered, pre-decimation
  std::vector<std::string> columns;
  std::vector<Row> rows;

  /// CSV: header "t_fs,<col>,...", integer cells.
  void write_csv(std::ostream& os) const;
  /// "scc-timeseries-v1" JSON document.
  void write_json(std::ostream& os) const;
};

class Sampler {
 public:
  static constexpr std::size_t kDefaultMaxRows = 4096;

  /// `interval` is the base cadence for attach(); pass SimTime::zero() for
  /// a sampler that is only ticked externally through tick(). `max_rows`
  /// >= 2 bounds memory (see decimation above).
  explicit Sampler(SimTime interval, std::size_t max_rows = kDefaultMaxRows);

  void set_label(std::string label) { series_.label = std::move(label); }

  /// Registers one column; `read` must be a pure observation of simulated
  /// state (no mutation, no time charged). Columns must be registered
  /// before the first tick.
  void add_column(std::string name, std::function<std::uint64_t()> read);

  /// Installs this sampler as `engine`'s cadence probe (requires a nonzero
  /// interval). The engine owns no reference beyond the probe std::function;
  /// call sim::Engine::clear_probe() or destroy the engine before the
  /// sampler dies.
  void attach(sim::Engine& engine);

  /// Offers one tick at virtual time `t` (called by the engine probe, or
  /// directly by the owner). Ticks are decimated by the current stride;
  /// accepted ticks snapshot every column.
  void tick(SimTime t);

  [[nodiscard]] std::size_t rows() const { return series_.rows.size(); }
  [[nodiscard]] std::uint64_t decimations() const {
    return series_.decimations;
  }
  /// Effective accepted cadence: base interval * 2^decimations.
  [[nodiscard]] SimTime effective_interval() const;

  /// Finalizes and moves the collected series out (the sampler is empty
  /// afterwards). Columns stay registered.
  [[nodiscard]] TimeSeries take();

 private:
  struct Column {
    std::string name;
    std::function<std::uint64_t()> read;
  };

  std::size_t max_rows_;
  std::uint64_t stride_ = 1;      // accept every stride-th offered tick
  std::uint64_t tick_index_ = 0;  // offered ticks so far
  std::vector<Column> columns_;
  TimeSeries series_;
};

}  // namespace scc::metrics
