#include "faults/fault_spec.hpp"

#include <stdexcept>

#include "common/cli.hpp"
#include "common/string_util.hpp"

namespace scc::faults {

namespace {

[[noreturn]] void bad(std::string_view clause, const char* why) {
  throw std::runtime_error(strprintf("bad fault clause '%s': %s",
                                     std::string(clause).c_str(), why));
}

/// Consumes a base-10 integer from the front of `s`; false if none.
/// Throws when the digits overflow an int.
bool eat_int(std::string_view& s, int& out, std::string_view clause) {
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
  if (i == 0) return false;
  out = parse_int_in(
      s.substr(0, i),
      strprintf("bad fault clause '%s': each number",
                std::string(clause).c_str()),
      0);
  s.remove_prefix(i);
  return true;
}

/// Consumes a decimal number (factor) from the front of `s`; false if
/// none. Throws when the token is not a finite number ("." or "-").
bool eat_double(std::string_view& s, double& out, std::string_view clause) {
  std::size_t i = 0;
  while (i < s.size() &&
         ((s[i] >= '0' && s[i] <= '9') || s[i] == '.' || s[i] == '-')) {
    ++i;
  }
  if (i == 0) return false;
  out = parse_double(s.substr(0, i),
                     strprintf("bad fault clause '%s': the factor",
                               std::string(clause).c_str()));
  s.remove_prefix(i);
  return true;
}

bool eat(std::string_view& s, char c) {
  if (s.empty() || s.front() != c) return false;
  s.remove_prefix(1);
  return true;
}

/// "<x>,<y>-<x>,<y>" naming two tiles.
LinkRef eat_link(std::string_view& s, std::string_view clause) {
  LinkRef link;
  if (!eat_int(s, link.a.x, clause) || !eat(s, ',') ||
      !eat_int(s, link.a.y, clause)) {
    bad(clause, "expected <x>,<y> tile coordinates");
  }
  if (!eat(s, '-')) bad(clause, "expected '-' between the two tiles");
  if (!eat_int(s, link.b.x, clause) || !eat(s, ',') ||
      !eat_int(s, link.b.y, clause)) {
    bad(clause, "expected <x>,<y> tile coordinates after '-'");
  }
  return link;
}

}  // namespace

FaultSpec FaultSpec::parse(std::string_view text) {
  FaultSpec spec;
  for (const std::string& clause_str : split(std::string(text), ';')) {
    if (clause_str.empty()) continue;
    std::string_view s = clause_str;
    const auto kind_end = s.find(':');
    if (kind_end == std::string_view::npos) {
      bad(clause_str, "expected '<kind>:<args>'");
    }
    const std::string_view kind = s.substr(0, kind_end);
    s.remove_prefix(kind_end + 1);
    if (kind == "straggler") {
      Straggler f;
      if (!eat_int(s, f.core, clause_str) || !eat(s, 'x') ||
          !eat_double(s, f.factor, clause_str) || !s.empty()) {
        bad(clause_str, "expected straggler:<core>x<factor>");
      }
      spec.stragglers.push_back(f);
    } else if (kind == "dvfs") {
      Dvfs f;
      if (!eat_int(s, f.core, clause_str) || !eat(s, '/') ||
          !eat_int(s, f.divisor, clause_str) || !s.empty()) {
        bad(clause_str, "expected dvfs:<core>/<divisor>");
      }
      spec.dvfs.push_back(f);
    } else if (kind == "slowlink") {
      SlowLink f;
      f.link = eat_link(s, clause_str);
      if (!eat(s, 'x') || !eat_double(s, f.factor, clause_str) ||
          !s.empty()) {
        bad(clause_str, "expected slowlink:<x>,<y>-<x>,<y>x<factor>");
      }
      spec.slow_links.push_back(f);
    } else if (kind == "deadlink") {
      spec.dead_links.push_back(eat_link(s, clause_str));
      if (!s.empty()) bad(clause_str, "expected deadlink:<x>,<y>-<x>,<y>");
    } else {
      bad(clause_str,
          "unknown kind (straggler | dvfs | slowlink | deadlink)");
    }
  }
  return spec;
}

std::string FaultSpec::to_string() const {
  std::string out;
  const auto clause = [&](std::string text) {
    if (!out.empty()) out += ';';
    out += text;
  };
  for (const Straggler& f : stragglers) {
    clause(strprintf("straggler:%dx%g", f.core, f.factor));
  }
  for (const Dvfs& f : dvfs) {
    clause(strprintf("dvfs:%d/%d", f.core, f.divisor));
  }
  for (const SlowLink& f : slow_links) {
    clause(strprintf("slowlink:%d,%d-%d,%dx%g", f.link.a.x, f.link.a.y,
                     f.link.b.x, f.link.b.y, f.factor));
  }
  for (const LinkRef& f : dead_links) {
    clause(strprintf("deadlink:%d,%d-%d,%d", f.a.x, f.a.y, f.b.x, f.b.y));
  }
  return out;
}

}  // namespace scc::faults
