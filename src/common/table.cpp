#include "common/table.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/string_util.hpp"

namespace scc {

namespace {

std::string csv_escape(const std::string& cell) {
  const bool needs_quotes = cell.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

// A cell holding a complete JSON number (stricter than strtod: no inf/nan/
// hex), so it can be emitted into the JSON document verbatim.
bool is_json_number(const std::string& cell) {
  std::size_t i = 0;
  const auto digits = [&] {
    std::size_t n = 0;
    while (i < cell.size() && cell[i] >= '0' && cell[i] <= '9') {
      ++i;
      ++n;
    }
    return n;
  };
  if (i < cell.size() && cell[i] == '-') ++i;
  if (digits() == 0) return false;
  if (i < cell.size() && cell[i] == '.') {
    ++i;
    if (digits() == 0) return false;
  }
  if (i < cell.size() && (cell[i] == 'e' || cell[i] == 'E')) {
    ++i;
    if (i < cell.size() && (cell[i] == '+' || cell[i] == '-')) ++i;
    if (digits() == 0) return false;
  }
  return i == cell.size();
}

}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  SCC_EXPECTS(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  SCC_EXPECTS(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size())
        os << std::string(width[c] - row[c].size() + 2, ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (const std::size_t w : width) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::write_csv(std::ostream& os) const {
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << csv_escape(row[c]);
      if (c + 1 < row.size()) os << ',';
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

void Table::write_csv_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_csv(out);
}

void Table::write_json(std::ostream& os, const std::string& name,
                       const std::string& extra_members) const {
  os << "{\n  \"schema\": \"scc-bench-v1\",\n  \"name\": \""
     << json_escape(name) << "\",\n  \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << (r == 0 ? "" : ",") << "\n    {";
    const auto& row = rows_[r];
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : ", ") << '"' << json_escape(header_[c])
         << "\": ";
      if (row[c].empty()) {
        os << "null";
      } else if (is_json_number(row[c])) {
        os << row[c];
      } else {
        os << '"' << json_escape(row[c]) << '"';
      }
    }
    os << '}';
  }
  os << "\n  ]";
  if (!extra_members.empty()) os << ",\n  " << extra_members;
  os << "\n}\n";
}

void Table::write_json_file(const std::string& path, const std::string& name,
                            const std::string& extra_members) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_json(out, name, extra_members);
}

}  // namespace scc
