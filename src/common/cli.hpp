// Minimal command-line flag parsing for bench and example binaries.
// Flags use --name=value; a bare --name is the boolean "true". The
// space-separated form (--name value) is deliberately NOT supported: the
// parser has no flag registry, so it cannot tell a boolean flag followed
// by a positional from a value flag, and guessing used to swallow the
// positional (and turned "--n -5" into n="-5" or n=true depending on the
// sign). Unknown flags are an error so typos don't silently run the wrong
// experiment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace scc {

class CliFlags {
 public:
  /// Parses argv. Throws std::runtime_error on malformed input.
  /// Arguments not starting with "--" are collected as positionals.
  /// Anything after a literal "--" separator is ignored (left for wrapped
  /// frameworks such as google-benchmark).
  static CliFlags parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// Integer flag; rejects garbage and values outside int64 (ERANGE).
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Range-checked integer flag for values narrowed to int or size_t:
  /// absent -> `fallback`; present -> must lie in [lo, INT_MAX], else
  /// "--name must be an integer in [lo, INT_MAX], got V" ("a positive
  /// integer" when lo is 1) or get_int's errors.
  [[nodiscard]] int get_int_in(const std::string& name, int fallback,
                               int lo) const;
  /// Floating-point flag; rejects garbage and non-finite values.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// get_int_in(name, fallback, 1): thread-count flags (--jobs) and
  /// counts. Rejects 0, negatives and garbage with "--name must be a
  /// positive integer in [1, INT_MAX], got V" / get_int's errors.
  [[nodiscard]] int get_positive_int(const std::string& name,
                                     int fallback) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  /// Names that were parsed but never queried -- call at the end of main to
  /// reject typos.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  mutable std::map<std::string, std::pair<std::string, bool>> values_;
  std::vector<std::string> positionals_;
};

}  // namespace scc
