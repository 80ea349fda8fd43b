#include "trace/chrome_export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "common/string_util.hpp"

namespace scc::trace {

namespace {

/// Chrome pids must be plain integers; cores, the scheduler and the link
/// tracks of every run get distinct ones, assigned in sorted (run, pid)
/// order so the assignment is independent of event order.
struct ProcessTable {
  std::map<std::pair<int, int>, int> ids;  // (run, raw pid) -> chrome pid

  explicit ProcessTable(const Recorder& recorder) {
    for (const Event& e : recorder.events()) ids[{e.run, e.pid}] = 0;
    int next = 1;
    for (auto& [key, id] : ids) id = next++;
  }

  [[nodiscard]] int of(const Event& e) const { return ids.at({e.run, e.pid}); }
};

std::string process_name(const Recorder& recorder, int run, int raw_pid) {
  std::string name;
  if (recorder.run_labels().size() > 1) {
    name = strprintf("run%d ", run);
    const std::string& label =
        recorder.run_labels()[static_cast<std::size_t>(run)];
    if (!label.empty()) name += label + " ";
  } else if (!recorder.run_labels()[0].empty()) {
    name = recorder.run_labels()[0] + " ";
  }
  if (raw_pid == kEnginePid) return name + "scheduler";
  if (raw_pid == kLinkPid) return name + "noc links";
  return name + strprintf("core %d", raw_pid);
}

}  // namespace

std::string format_us(SimTime t) {
  constexpr std::uint64_t kFsPerUs = 1'000'000'000;
  return strprintf("%llu.%09llu",
                   static_cast<unsigned long long>(t.femtoseconds() / kFsPerUs),
                   static_cast<unsigned long long>(t.femtoseconds() % kFsPerUs));
}

void write_chrome_json(const Recorder& recorder, std::ostream& os) {
  const ProcessTable procs(recorder);

  // Thread lanes per process, sorted for a stable tid assignment.
  std::map<int, std::map<std::string_view, int>> lanes;
  for (const Event& e : recorder.events()) {
    if (e.kind != EventKind::kLinkWindow) lanes[procs.of(e)][e.lane] = 0;
  }
  for (auto& [pid, by_lane] : lanes) {
    int next = 1;
    for (auto& [lane, tid] : by_lane) tid = next++;
  }

  os << "{\n\"displayTimeUnit\": \"ns\",\n";
  os << "\"otherData\": {\"dropped_events\": \"" << recorder.dropped()
     << "\"},\n";
  os << "\"traceEvents\": [";

  bool first = true;
  const auto emit = [&](const std::string& line) {
    os << (first ? "\n" : ",\n") << line;
    first = false;
  };

  // Metadata: process and thread names.
  for (const auto& [key, pid] : procs.ids) {
    emit(strprintf(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":"
        "{\"name\":\"%s\"}}",
        pid,
        json_escape(process_name(recorder, key.first, key.second)).c_str()));
    emit(strprintf(
        "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":%d,\"args\":"
        "{\"sort_index\":%d}}",
        pid, pid));
  }
  for (const auto& [pid, by_lane] : lanes) {
    for (const auto& [lane, tid] : by_lane) {
      emit(strprintf(
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
          "\"args\":{\"name\":\"%s\"}}",
          pid, tid, json_escape(lane).c_str()));
    }
  }

  for (const Event& e : recorder.events()) {
    const int pid = procs.of(e);
    switch (e.kind) {
      case EventKind::kInterval: {
        std::string line = strprintf(
            "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":%d,"
            "\"tid\":%d,\"ts\":%s,\"dur\":%s",
            json_escape(e.name).c_str(), pid, lanes[pid][e.lane],
            format_us(e.t0).c_str(), format_us(e.t1 - e.t0).c_str());
        if (!e.detail.empty()) {
          line += strprintf(",\"args\":{\"detail\":\"%s\"}",
                            json_escape(e.detail).c_str());
        }
        emit(line + "}");
        break;
      }
      case EventKind::kInstant: {
        std::string line = strprintf(
            "{\"name\":\"%s\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\","
            "\"pid\":%d,\"tid\":%d,\"ts\":%s",
            json_escape(e.name).c_str(), pid, lanes[pid][e.lane],
            format_us(e.t0).c_str());
        if (!e.detail.empty()) {
          line += strprintf(",\"args\":{\"detail\":\"%s\"}",
                            json_escape(e.detail).c_str());
        }
        emit(line + "}");
        break;
      }
      case EventKind::kLinkWindow: {
        // Busy windows per link never overlap (the contention model is a
        // busy-until horizon), so a 0/1 counter track renders occupancy.
        emit(strprintf(
            "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%d,\"ts\":%s,\"args\":"
            "{\"occupied\":1}}",
            json_escape(e.lane).c_str(), pid, format_us(e.t0).c_str()));
        emit(strprintf(
            "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%d,\"ts\":%s,\"args\":"
            "{\"occupied\":0}}",
            json_escape(e.lane).c_str(), pid, format_us(e.t1).c_str()));
        break;
      }
    }
  }
  os << "\n]\n}\n";
}

void write_chrome_json_file(const Recorder& recorder,
                            const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open trace file: " + path);
  write_chrome_json(recorder, os);
}

void write_link_csv(const Recorder& recorder, std::ostream& os) {
  struct LinkStats {
    std::uint64_t windows = 0;
    SimTime busy;
    SimTime queue;
  };
  std::map<std::pair<int, std::string_view>, LinkStats> stats;
  std::map<int, std::pair<SimTime, SimTime>> span;  // run -> [min t0, max t1]
  for (const Event& e : recorder.events()) {
    auto [it, inserted] = span.try_emplace(e.run, e.t0, e.t1);
    if (!inserted) {
      it->second.first = std::min(it->second.first, e.t0);
      it->second.second = std::max(it->second.second, e.t1);
    }
    if (e.kind != EventKind::kLinkWindow) continue;
    LinkStats& s = stats[{e.run, e.lane}];
    ++s.windows;
    s.busy += e.t1 - e.t0;
    s.queue += e.extra;
  }
  os << "run,link,windows,busy_us,queue_us,utilization_pct\n";
  for (const auto& [key, s] : stats) {
    const auto& [lo, hi] = span.at(key.first);
    const double span_fs =
        static_cast<double>((hi - lo).femtoseconds());
    const double util =
        span_fs > 0.0
            ? static_cast<double>(s.busy.femtoseconds()) / span_fs * 100.0
            : 0.0;
    os << strprintf("%d,\"%s\",%llu,%s,%s,%.3f\n", key.first,
                    std::string(key.second).c_str(),
                    static_cast<unsigned long long>(s.windows),
                    format_us(s.busy).c_str(), format_us(s.queue).c_str(),
                    util);
  }
}

void write_link_csv_file(const Recorder& recorder, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open link CSV file: " + path);
  write_link_csv(recorder, os);
}

}  // namespace scc::trace
