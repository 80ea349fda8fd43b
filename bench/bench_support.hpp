// Helpers shared by the figure/table bench binaries: every binary writes
// its result table as bench_results/<name>.csv plus the "scc-bench-v1"
// JSON that the bench-smoke gates compare byte for byte with a committed
// baseline, and the binaries taking --blame print critical-path blame
// reports in one format.
#pragma once

#include <cstddef>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/table.hpp"
#include "harness/runner.hpp"
#include "metrics/blame.hpp"
#include "trace/recorder.hpp"

namespace scc::bench {

/// Writes `table` as bench_results/<name>.csv and .json (scc-bench-v1;
/// `extra_members` is spliced in as Table::write_json documents).
inline void write_table(const std::string& name, const Table& table,
                        const std::string& extra_members = {}) {
  std::filesystem::create_directories("bench_results");
  const std::string csv = "bench_results/" + name + ".csv";
  const std::string json = "bench_results/" + name + ".json";
  table.write_csv_file(csv);
  table.write_json_file(json, name, extra_members);
  std::cout << "\nseries written to " << csv << " and " << json << '\n';
}

/// The critical-path blame report of `result`'s final repetition, which
/// ran traced into `recorder` as its current run.
inline std::string blame_text(const trace::Recorder& recorder,
                              const harness::RunResult& result,
                              std::string_view variant,
                              std::size_t elements) {
  const auto [begin, end] = result.sample_windows.back();
  const metrics::BlameReport report = metrics::analyze_blame(
      recorder, recorder.current_run(), /*terminal_core=*/0, begin, end);
  std::ostringstream ss;
  ss << "--- " << variant << " n=" << elements;
  if (recorder.dropped() > 0) {
    ss << " (trace dropped " << recorder.dropped()
       << " events; attribution partial)";
  }
  ss << " ---\n";
  report.print(ss);
  return ss.str();
}

}  // namespace scc::bench
