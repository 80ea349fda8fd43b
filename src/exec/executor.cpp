#include "exec/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "common/cli.hpp"
#include "common/contracts.hpp"

namespace scc::exec {

int default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int resolve_jobs(int jobs) {
  SCC_EXPECTS(jobs >= 0);
  return jobs == 0 ? default_jobs() : jobs;
}

int jobs_flag(const CliFlags& flags) {
  // auto (absent) = 0: default_jobs() at the executor.
  return flags.get_positive_int("jobs", 0);
}

void for_each_index(std::size_t count, int jobs,
                    const std::function<void(std::size_t)>& fn) {
  const int workers = resolve_jobs(jobs);
  if (count == 0) return;
  if (workers <= 1 || count == 1) {
    // Exactly the serial path: inline, in order, first failure propagates
    // from its own frame.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // One slot per index: the first failing INDEX (not the first failing
  // thread) is rethrown, so the surfaced error is schedule-independent.
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // jthreads join on scope exit -- also when a later spawn throws, so no
    // helper outlives the counter and slots it works on. Joining makes
    // every fn(i) effect, errors[i] included, visible to this thread.
    const std::size_t threads =
        std::min(static_cast<std::size_t>(workers), count);
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
    work();  // the calling thread is a worker too
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace scc::exec
