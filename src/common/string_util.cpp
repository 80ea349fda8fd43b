#include "common/string_util.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace scc {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::string strprintf(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string format_minutes(double seconds) {
  const bool negative = seconds < 0;
  if (negative) seconds = -seconds;
  const auto whole_minutes = static_cast<long>(seconds / 60.0);
  const double rest = seconds - static_cast<double>(whole_minutes) * 60.0;
  return strprintf("%s%ldmin %05.2fs", negative ? "-" : "", whole_minutes, rest);
}

std::string format_duration_us(double microseconds) {
  if (microseconds < 1e3) return strprintf("%.1f us", microseconds);
  if (microseconds < 1e6) return strprintf("%.2f ms", microseconds * 1e-3);
  return strprintf("%.3f s", microseconds * 1e-6);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strprintf("\\u%04x", static_cast<unsigned>(c));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return strprintf("%.17g", v);
}

}  // namespace scc
