// Minimal command-line flag parsing for bench and example binaries.
// Every argument is --name=value or a bare --name (the boolean "true");
// anything else -- a positional, a "--" separator, a value without its
// flag -- is an error. The space-separated form (--name value) is
// deliberately NOT supported: the parser has no flag registry, so it
// cannot tell a boolean flag followed by a stray token from a value flag.
// Unknown flags are an error too (see unconsumed()), so typos don't
// silently run the wrong experiment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace scc {

/// Parses all of `text` as a base-10 integer in [lo, INT_MAX]: the checks
/// of CliFlags::get_int_in, for integers inside a flag value (the W and H
/// of --mesh=WxH, a --sizes entry, a fault-spec field). Anything else --
/// garbage, trailing junk, overflow, a value below lo -- throws
/// std::runtime_error "<what> must be an integer in [lo, INT_MAX], got
/// '<text>'" ("a positive integer" when lo is 1).
[[nodiscard]] int parse_int_in(std::string_view text, std::string_view what,
                               int lo);

/// Parses all of `text` as a finite decimal number (strtod syntax): the
/// checks of CliFlags::get_double, for numbers inside a flag value (a
/// fault-spec factor). Garbage, trailing junk, NaN, infinities and
/// overflowing literals throw std::runtime_error "<what> must be a finite
/// number, got '<text>'".
[[nodiscard]] double parse_double(std::string_view text,
                                  std::string_view what);

class CliFlags {
 public:
  /// Parses argv. Throws std::runtime_error on any argument that is not
  /// --name or --name=value.
  static CliFlags parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// Integer flag; rejects garbage and values outside int64 (ERANGE).
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Range-checked integer flag for values narrowed to int or size_t:
  /// absent -> `fallback`; present -> parse_int_in(value, "--name", lo).
  [[nodiscard]] int get_int_in(const std::string& name, int fallback,
                               int lo) const;
  /// Floating-point flag: absent -> `fallback`; present ->
  /// parse_double(value, "--name").
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// get_int_in(name, fallback, 1): thread-count flags (--jobs) and
  /// counts.
  [[nodiscard]] int get_positive_int(const std::string& name,
                                     int fallback) const;

  /// Names that were parsed but never queried -- call at the end of main to
  /// reject typos.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  mutable std::map<std::string, std::pair<std::string, bool>> values_;
};

}  // namespace scc
