// String helpers shared by the table writer, the CLI parser and the JSON
// writers (tables, metrics snapshots, histograms, traces).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace scc {

/// Splits on a single character; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string strprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// "mm:ss.cc" rendering of a duration in seconds (Fig. 10 style).
[[nodiscard]] std::string format_minutes(double seconds);

/// Human-friendly duration, e.g. "432.1 us" or "12.3 ms".
[[nodiscard]] std::string format_duration_us(double microseconds);

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes). Handles quotes, backslash and control characters.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Renders a double as a JSON number token. Non-finite values (NaN and
/// +/-Inf, typically from zero-division in derived rates) have no JSON
/// representation and would corrupt the document; they render as "null".
/// Every double-valued JSON writer must go through this.
[[nodiscard]] std::string json_number(double v);

}  // namespace scc
