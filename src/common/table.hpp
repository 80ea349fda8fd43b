// Result-table rendering: aligned ASCII tables for stdout and CSV files for
// downstream plotting. Every bench binary reports through these so the
// reproduction output has one consistent format.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace scc {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t columns() const { return header_.size(); }

  /// Pretty-prints with column alignment.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (quotes cells containing separators).
  void write_csv(std::ostream& os) const;

  /// Convenience: writes CSV to a file path; throws std::runtime_error on
  /// failure to open.
  void write_csv_file(const std::string& path) const;

  /// Writes the "scc-bench-v1" JSON document the bench-smoke gates compare
  /// with committed baselines: one object per row keyed by the header
  /// names. Cells that are valid JSON numbers are emitted as numbers, empty
  /// cells as null, the rest as strings. `extra_members`, when non-empty,
  /// must be one or more complete top-level members WITHOUT a leading comma
  /// (e.g. "\"histograms\": {...}") and is spliced verbatim after the rows
  /// array -- the caller owns its JSON validity. Empty (the default) emits
  /// the historical byte-identical document.
  void write_json(std::ostream& os, const std::string& name,
                  const std::string& extra_members = {}) const;
  void write_json_file(const std::string& path, const std::string& name,
                       const std::string& extra_members = {}) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace scc
