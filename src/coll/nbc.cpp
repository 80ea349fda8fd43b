#include "coll/nbc.hpp"

#include <coroutine>
#include <exception>
#include <utility>

#include "common/contracts.hpp"
#include "machine/scc_machine.hpp"

namespace scc::coll::nbc {

namespace {

/// Awaiting a step transfers into the lane head's resume point (its own
/// Task frame on the first step). The schedule comes back either through a
/// round gate, which parks it in the lane's LaneYield, or through its
/// Task's final awaiter. Completion and failure are read by progress()
/// afterwards, never thrown here, so the engine can retire the request
/// before propagating a failure.
struct StepAwaiter {
  LaneYield& lane;
  std::coroutine_handle<sim::Task<>::promise_type> schedule;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  [[nodiscard]] std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> stepper) const noexcept {
    lane.stepper = stepper;
    schedule.promise().continuation = stepper;
    return lane.resume ? lane.resume : schedule;
  }
  void await_resume() const noexcept {}
};

}  // namespace

bool CollRequest::done() const {
  SCC_EXPECTS(engine_ != nullptr);
  return engine_->done(id_);
}

sim::Task<> CollRequest::wait() {
  SCC_EXPECTS(engine_ != nullptr);
  return engine_->wait(id_);
}

ProgressEngine::ProgressEngine(machine::CoreApi& api, Prims prims,
                               int lanes) {
  SCC_EXPECTS(lanes >= 1);
  // The blocking layer's synchronous handshake has no completion point that
  // can poll-and-yield, so a blocked step pins the core and a multi-lane
  // engine could close cross-lane wait cycles. One lane is strict FIFO --
  // equivalent to serialized blocking calls -- and always safe.
  SCC_EXPECTS(lanes == 1 || prims != Prims::kBlocking);
  const int p = api.num_cores();
  // The machine's flag file must cover the last lane's flag range; raise
  // SccConfig::flags_per_core for wide engines (harness does this).
  SCC_EXPECTS(rcce::Layout::lane(p, lanes - 1, lanes).flags_needed() <=
              api.machine().config().flags_per_core);
  lanes_.reserve(static_cast<std::size_t>(lanes));
  for (int which = 0; which < lanes; ++which) {
    // Multi-lane interleaving needs poll-and-yield completions (see
    // LaneYield::cooperative); one lane keeps blocking-API-identical timing.
    lanes_.push_back(std::make_unique<Lane>(
        api, rcce::Layout::lane(p, which, lanes), prims, lanes > 1));
  }
}

// Requests go round-robin over lanes by id; the i*() helpers must build
// the schedule against the SAME lane enqueue() will file it in.
ProgressEngine::Lane& ProgressEngine::lane_of(RequestId id) const {
  return *lanes_[static_cast<std::size_t>(
      id % static_cast<RequestId>(lanes_.size()))];
}

CollRequest ProgressEngine::enqueue(sim::Task<> schedule) {
  const RequestId id = next_id_++;
  lane_of(id).queue.push_back(Pending{id, std::move(schedule)});
  return CollRequest{this, id};
}

CollRequest ProgressEngine::ibcast(std::span<double> data, int root,
                                   SplitPolicy policy) {
  return enqueue(broadcast(lane_of(next_id_).stack, data, root, policy));
}

CollRequest ProgressEngine::iallreduce(std::span<const double> in,
                                       std::span<double> out, ReduceOp op,
                                       SplitPolicy policy, Algo algo) {
  return enqueue(
      allreduce(lane_of(next_id_).stack, in, out, op, policy, algo));
}

CollRequest ProgressEngine::iallgather(std::span<const double> contribution,
                                       std::span<double> gathered, Algo algo) {
  return enqueue(
      allgather(lane_of(next_id_).stack, contribution, gathered, algo));
}

CollRequest ProgressEngine::ialltoall(std::span<const double> sendbuf,
                                      std::span<double> recvbuf, Algo algo) {
  return enqueue(alltoall(lane_of(next_id_).stack, sendbuf, recvbuf, algo));
}

sim::Task<> ProgressEngine::progress() {
  for (auto& lane : lanes_) {
    if (lane->queue.empty()) continue;
    // No re-entrant stepping: a schedule must not call back into the engine.
    SCC_EXPECTS(!lane->yield.stepper);
    sim::Task<>& schedule = lane->queue.front().schedule;
    co_await StepAwaiter{lane->yield, schedule.native_handle()};
    lane->yield.stepper = {};
    if (schedule.done()) {
      // Retire before propagating any failure so the engine stays usable.
      lane->yield.resume = {};
      const std::exception_ptr failure = schedule.failure();
      lane->queue.pop_front();
      if (failure) std::rethrow_exception(failure);
    }
  }
}

bool ProgressEngine::done(RequestId id) const {
  SCC_EXPECTS(id < next_id_);
  // Each lane retires its requests in id order.
  const auto& queue = lane_of(id).queue;
  return queue.empty() || queue.front().id > id;
}

bool ProgressEngine::idle() const {
  for (const auto& lane : lanes_) {
    if (!lane->queue.empty()) return false;
  }
  return true;
}

sim::Task<> ProgressEngine::wait(RequestId id) {
  while (!done(id)) co_await progress();
}

}  // namespace scc::coll::nbc
