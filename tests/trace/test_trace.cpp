#include "trace/recorder.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "machine/profile.hpp"
#include "trace/chrome_export.hpp"

namespace scc::trace {
namespace {

// --- recorder basics -----------------------------------------------------

TEST(Recorder, RecordsIntervalsInstantsAndWindows) {
  Recorder rec;
  rec.interval(3, "compute", SimTime{10}, SimTime{30}, "detail");
  rec.instant(kEnginePid, "tasks", "spawn", SimTime{5});
  rec.link_window(rec.intern("(0,0)->(1,0)"), SimTime{0}, SimTime{8},
                  SimTime{2});
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[0].kind, EventKind::kInterval);
  EXPECT_EQ(rec.events()[0].pid, 3);
  EXPECT_EQ(rec.events()[1].pid, kEnginePid);
  EXPECT_EQ(rec.events()[2].pid, kLinkPid);
  EXPECT_EQ(rec.events()[2].extra, SimTime{2});
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Recorder, CapacityBoundsMemoryAndCountsDrops) {
  Recorder rec(4);
  for (int i = 0; i < 10; ++i)
    rec.instant(0, "lane", "e", SimTime{static_cast<std::uint64_t>(i)});
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Recorder, RunScopesStampEvents) {
  Recorder rec;
  rec.instant(0, "l", "a", SimTime{1});
  rec.begin_run("second");
  rec.instant(0, "l", "b", SimTime{2});
  EXPECT_EQ(rec.events()[0].run, 0);
  EXPECT_EQ(rec.events()[1].run, 1);
  ASSERT_EQ(rec.run_labels().size(), 2u);
  EXPECT_EQ(rec.run_labels()[1], "second");
}

TEST(Recorder, InternedViewsAreStableAndShared) {
  Recorder rec;
  const std::string_view a = rec.intern("same-name");
  std::string_view b;
  for (int i = 0; i < 1000; ++i) b = rec.intern(std::string("name") + std::to_string(i));
  EXPECT_EQ(rec.intern("same-name").data(), a.data());
  EXPECT_EQ(a, "same-name");
}

// --- exact-decimal timestamp formatting ----------------------------------

TEST(ChromeExport, FormatUsIsExactDecimal) {
  EXPECT_EQ(format_us(SimTime::zero()), "0.000000000");
  EXPECT_EQ(format_us(SimTime{1'234'567'890'123}), "1234.567890123");
  EXPECT_EQ(format_us(SimTime{1}), "0.000000001");  // one femtosecond
}

/// Parses a format_us string back to femtoseconds (exactness check).
std::uint64_t parse_us(const std::string& s) {
  const std::size_t dot = s.find('.');
  EXPECT_NE(dot, std::string::npos);
  EXPECT_EQ(s.size() - dot - 1, 9u);  // always 9 fractional digits
  return std::stoull(s.substr(0, dot)) * 1'000'000'000 +
         std::stoull(s.substr(dot + 1));
}

TEST(ChromeExport, FormatUsRoundTrips) {
  for (const std::uint64_t fs :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{999'999'999},
        std::uint64_t{1'000'000'000}, std::uint64_t{123'456'789'012'345}}) {
    EXPECT_EQ(parse_us(format_us(SimTime{fs})), fs);
  }
}

// --- a tiny JSON validator -----------------------------------------------
//
// Recursive-descent acceptor for the JSON grammar -- enough to prove the
// exporter's output is well-formed without a JSON library dependency.

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  [[nodiscard]] bool value() {
    if (depth_ > 64 || pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  [[nodiscard]] bool object() {
    ++depth_;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; --depth_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; --depth_; return true; }
      return false;
    }
  }
  [[nodiscard]] bool array() {
    ++depth_;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; --depth_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; --depth_; return true; }
      return false;
    }
  }
  [[nodiscard]] bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_])))
              return false;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  [[nodiscard]] bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start && text_[start] != '-' ? true : pos_ > start + 1;
  }
  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

TEST(JsonValidator, AcceptsAndRejectsCorrectly) {
  EXPECT_TRUE(JsonValidator(R"({"a":[1,2.5,-3e2],"b":"x\n\"","c":null})").valid());
  EXPECT_TRUE(JsonValidator("{}").valid());
  EXPECT_FALSE(JsonValidator("{").valid());
  EXPECT_FALSE(JsonValidator(R"({"a":})").valid());
  EXPECT_FALSE(JsonValidator(R"(["unterminated)").valid());
  EXPECT_FALSE(JsonValidator("{} trailing").valid());
}

// --- integration: traced harness runs ------------------------------------

harness::RunSpec small_spec() {
  harness::RunSpec spec;
  spec.collective = harness::Collective::kAllreduce;
  spec.variant = harness::PaperVariant::kLightweight;
  spec.elements = 64;
  spec.repetitions = 2;
  spec.warmup = 1;
  spec.config.tiles_x = 2;
  spec.config.tiles_y = 2;
  return spec;
}

TEST(Trace, ExportedJsonIsWellFormed) {
  Recorder rec;
  harness::RunSpec spec = small_spec();
  spec.trace = &rec;
  spec.config.cost.hw.model_link_contention = true;  // exercise link tracks
  static_cast<void>(harness::run_collective(spec));
  ASSERT_FALSE(rec.events().empty());
  std::ostringstream os;
  write_chrome_json(rec, os);
  EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str().substr(0, 2000);
}

// The acceptance criterion: summing a core's per-phase intervals from the
// trace reproduces its CoreProfile totals EXACTLY (femtosecond-level).
TEST(Trace, IntervalSumsMatchCoreProfileTotals) {
  Recorder rec;
  harness::RunSpec spec = small_spec();
  spec.trace = &rec;
  spec.collect_profiles = true;
  const harness::RunResult result = harness::run_collective(spec);
  ASSERT_EQ(rec.dropped(), 0u) << "capacity too small for exact accounting";

  std::map<std::pair<int, std::string_view>, SimTime> sums;
  for (const Event& e : rec.events()) {
    if (e.kind == EventKind::kInterval) sums[{e.pid, e.lane}] += e.t1 - e.t0;
  }
  using machine::Phase;
  for (int core = 0; core < static_cast<int>(result.profiles.size()); ++core) {
    const machine::CoreProfile& profile =
        result.profiles[static_cast<std::size_t>(core)];
    for (const Phase phase :
         {Phase::kCompute, Phase::kSwOverhead, Phase::kMpbTransfer,
          Phase::kPrivMem, Phase::kFlagOp, Phase::kFlagWait}) {
      SimTime sum;
      const auto it = sums.find({core, machine::phase_name(phase)});
      if (it != sums.end()) sum = it->second;
      EXPECT_EQ(sum, profile.get(phase))
          << "core " << core << " phase " << machine::phase_name(phase);
    }
  }
}

// Intervals survive the JSON round trip losslessly: re-summing ts/dur
// parsed back out of the exported text still matches the profile totals.
TEST(Trace, JsonTimestampsStayExact) {
  Recorder rec;
  harness::RunSpec spec = small_spec();
  spec.trace = &rec;
  static_cast<void>(harness::run_collective(spec));
  std::uint64_t direct = 0;
  for (const Event& e : rec.events()) {
    if (e.kind == EventKind::kInterval)
      direct += (e.t1 - e.t0).femtoseconds();
  }
  std::ostringstream os;
  write_chrome_json(rec, os);
  const std::string json = os.str();
  std::uint64_t parsed = 0;
  std::size_t pos = 0;
  while ((pos = json.find("\"dur\":", pos)) != std::string::npos) {
    pos += 6;
    const std::size_t end = json.find_first_of(",}", pos);
    parsed += parse_us(json.substr(pos, end - pos));
  }
  EXPECT_EQ(parsed, direct);
  EXPECT_GT(direct, 0u);
}

TEST(Trace, TracingDoesNotChangeTiming) {
  const harness::RunResult untraced = harness::run_collective(small_spec());
  Recorder rec;
  harness::RunSpec spec = small_spec();
  spec.trace = &rec;
  const harness::RunResult traced = harness::run_collective(spec);
  EXPECT_EQ(traced.mean_latency, untraced.mean_latency);
  EXPECT_EQ(traced.events, untraced.events);
}

TEST(Trace, DeterministicEventStream) {
  const auto run_once = [] {
    Recorder rec;
    harness::RunSpec spec = small_spec();
    spec.trace = &rec;
    static_cast<void>(harness::run_collective(spec));
    std::ostringstream os;
    write_chrome_json(rec, os);
    return os.str();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Trace, LinkWindowsRecordedWithContention) {
  Recorder rec;
  harness::RunSpec spec = small_spec();
  spec.collective = harness::Collective::kAlltoall;
  spec.trace = &rec;
  spec.config.cost.hw.model_link_contention = true;
  static_cast<void>(harness::run_collective(spec));
  std::size_t windows = 0;
  SimTime queued;
  for (const Event& e : rec.events()) {
    if (e.kind == EventKind::kLinkWindow) {
      ++windows;
      EXPECT_GE(e.t1, e.t0);
      queued += e.extra;
    }
  }
  EXPECT_GT(windows, 0u);

  std::ostringstream csv;
  write_link_csv(rec, csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.rfind("run,link,windows,busy_us,queue_us,utilization_pct\n",
                       0),
            0u);
  EXPECT_NE(text.find("(0,0)->(1,0)"), std::string::npos);
}

TEST(Trace, SweepProducesOneRunScopePerPoint) {
  Recorder rec;
  harness::SweepSpec spec;
  spec.run.collective = harness::Collective::kAllreduce;
  spec.from = 32;
  spec.to = 64;
  spec.step = 32;
  spec.run.repetitions = 1;
  spec.run.warmup = 0;
  spec.run.config.tiles_x = 2;
  spec.run.config.tiles_y = 2;
  spec.variants = {harness::PaperVariant::kBlocking,
                   harness::PaperVariant::kLightweight};
  spec.run.trace = &rec;
  static_cast<void>(harness::run_sweep(spec));
  // 2 sizes x 2 variants = 4 run scopes after the implicit run 0.
  ASSERT_EQ(rec.run_labels().size(), 5u);
  EXPECT_EQ(rec.run_labels()[1], "allreduce/blocking n=32");
  EXPECT_EQ(rec.run_labels()[4], "allreduce/lightweight n=64");
  std::ostringstream os;
  write_chrome_json(rec, os);
  EXPECT_TRUE(JsonValidator(os.str()).valid());
}

TEST(Trace, PerturbationInstantsRecorded) {
  Recorder rec;
  harness::RunSpec spec = small_spec();
  spec.trace = &rec;
  spec.config.perturb_seed = 7;
  spec.config.perturb_max_delay_fs = 1'000'000;
  static_cast<void>(harness::run_collective(spec));
  bool saw_delay = false, saw_spawn = false;
  for (const Event& e : rec.events()) {
    if (e.kind != EventKind::kInstant || e.pid != kEnginePid) continue;
    if (e.name == "inject-delay") saw_delay = true;
    if (e.name == "spawn") saw_spawn = true;
  }
  EXPECT_TRUE(saw_delay);
  EXPECT_TRUE(saw_spawn);
}

}  // namespace
}  // namespace scc::trace
