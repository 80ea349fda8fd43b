#include "metrics/registry.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "common/string_util.hpp"

namespace scc::metrics {

const Metric* MetricsRegistry::find(std::string_view path) const {
  const auto it = entries_.find(std::string(path));
  return it == entries_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::value_or(std::string_view path,
                                        std::uint64_t fallback) const {
  const Metric* m = find(path);
  return m == nullptr ? fallback : m->value;
}

void MetricsRegistry::absorb(const MetricsRegistry& other,
                             const std::string& prefix) {
  for (const auto& [path, metric] : other.entries_) {
    entries_[prefix + path] = metric;
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"scc-metrics-v1\",\n  \"label\": \""
     << json_escape(label_) << "\",\n  \"metrics\": {";
  bool first = true;
  for (const auto& [path, m] : entries_) {
    if (!first) os << ',';
    first = false;
    os << "\n    \"" << json_escape(path) << "\": {\"unit\": \""
       << unit_name(m.unit) << "\", \"invariant\": "
       << (m.invariant ? "true" : "false") << ", \"value\": " << m.value
       << '}';
  }
  os << "\n  }\n}\n";
}

void MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  write_json(out);
}

void MetricsRegistry::print(std::ostream& os) const {
  std::size_t width = 0;
  for (const auto& [path, m] : entries_) width = std::max(width, path.size());
  if (!label_.empty()) os << "metrics for " << label_ << ":\n";
  for (const auto& [path, m] : entries_) {
    os << "  " << path << std::string(width - path.size() + 2, ' ')
       << strprintf("%20llu  %-5s  %s\n",
                    static_cast<unsigned long long>(m.value),
                    std::string(unit_name(m.unit)).c_str(),
                    m.invariant ? "invariant" : "variant");
  }
}

std::vector<std::string> MetricsRegistry::diff_invariant(
    const MetricsRegistry& baseline, const MetricsRegistry& other) {
  std::vector<std::string> out;
  for (const auto& [path, m] : baseline.entries_) {
    if (!m.invariant) continue;
    const Metric* o = other.find(path);
    if (o == nullptr) {
      out.push_back(strprintf("invariant metric %s missing from other side",
                              path.c_str()));
      continue;
    }
    if (o->value != m.value || o->unit != m.unit) {
      out.push_back(strprintf(
          "invariant metric %s drifted: baseline %llu %s vs other %llu %s",
          path.c_str(), static_cast<unsigned long long>(m.value),
          std::string(unit_name(m.unit)).c_str(),
          static_cast<unsigned long long>(o->value),
          std::string(unit_name(o->unit)).c_str()));
    }
  }
  for (const auto& [path, m] : other.entries_) {
    if (!m.invariant) continue;
    if (baseline.find(path) == nullptr) {
      out.push_back(strprintf("invariant metric %s missing from baseline",
                              path.c_str()));
    }
  }
  return out;
}

}  // namespace scc::metrics
