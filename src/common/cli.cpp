#include "common/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace scc {

CliFlags CliFlags::parse(int argc, const char* const* argv) {
  CliFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string body = arg.rfind("--", 0) == 0 ? arg.substr(2) : "";
    const std::size_t eq = body.find('=');
    if (eq == 0 || body.empty())
      throw std::runtime_error("unexpected argument '" + arg +
                               "' (flags are --name or --name=value)");
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = {body.substr(eq + 1), false};
    } else {
      // Values must be attached with '=' (see header comment).
      flags.values_[body] = {"true", false};  // bare boolean flag
    }
  }
  return flags;
}

bool CliFlags::has(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  it->second.second = true;
  return true;
}

std::string CliFlags::get(const std::string& name,
                          const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  return it->second.first;
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  char* end = nullptr;
  const char* s = it->second.first.c_str();
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  // end == s catches the empty value of "--n=" (strtoll consumes nothing
  // but still leaves *end == '\0', which the trailing-junk check accepts).
  if (end == nullptr || end == s || *end != '\0')
    throw std::runtime_error("flag --" + name + " expects an integer, got '" +
                             it->second.first + "'");
  // Out of range: strtoll saturates at LLONG_MIN/MAX and sets ERANGE.
  if (errno == ERANGE)
    throw std::runtime_error("flag --" + name + " is out of range, got '" +
                             it->second.first + "'");
  return v;
}

int parse_int_in(std::string_view text, std::string_view what, int lo) {
  const std::string value(text);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  constexpr int kHi = std::numeric_limits<int>::max();
  // end == value.c_str(): nothing parsed (an empty or blank value).
  if (end == value.c_str() || *end != '\0' || errno == ERANGE || v < lo ||
      v > kHi) {
    throw std::runtime_error(std::string(what) + " must be " +
                             (lo == 1 ? "a positive integer" : "an integer") +
                             " in [" + std::to_string(lo) + ", " +
                             std::to_string(kHi) + "], got '" + value + "'");
  }
  return static_cast<int>(v);
}

int CliFlags::get_int_in(const std::string& name, int fallback,
                         int lo) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  return parse_int_in(it->second.first, "--" + name, lo);
}

double parse_double(std::string_view text, std::string_view what) {
  const std::string value(text);
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  // end == value.c_str(): nothing parsed (an empty or blank value). "nan",
  // "inf" and overflowing literals such as "1e999" parse, but nothing here
  // means anything by them.
  if (end == value.c_str() || *end != '\0' || !std::isfinite(v)) {
    throw std::runtime_error(std::string(what) +
                             " must be a finite number, got '" + value + "'");
  }
  return v;
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  return parse_double(it->second.first, "--" + name);
}

int CliFlags::get_positive_int(const std::string& name, int fallback) const {
  return get_int_in(name, fallback, 1);
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  it->second.second = true;
  const std::string& v = it->second.first;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::runtime_error("flag --" + name + " expects a boolean, got '" + v +
                           "'");
}

std::vector<std::string> CliFlags::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [name, entry] : values_)
    if (!entry.second) out.push_back(name);
  return out;
}

}  // namespace scc
