#include "coll/nbc.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "machine/scc_machine.hpp"

namespace scc::coll::nbc {

namespace {

Sched run_bcast(Stack& stack, std::span<double> data, int root,
                SplitPolicy policy) {
  co_await broadcast(stack, data, root, policy);
}

Sched run_allreduce(Stack& stack, std::span<const double> in,
                    std::span<double> out, ReduceOp op, SplitPolicy policy,
                    Algo algo) {
  co_await allreduce(stack, in, out, op, policy, algo);
}

Sched run_allgather(Stack& stack, std::span<const double> contribution,
                    std::span<double> gathered, Algo algo) {
  co_await allgather(stack, contribution, gathered, algo);
}

Sched run_alltoall(Stack& stack, std::span<const double> sendbuf,
                   std::span<double> recvbuf, Algo algo) {
  co_await alltoall(stack, sendbuf, recvbuf, algo);
}

/// Awaiting a step transfers into the schedule's resume point; the schedule
/// returns control either through a round gate (LaneYielder::on_round) or
/// through its FinalAwaiter. Completion status and exceptions are inspected
/// by the stepper afterwards, never thrown here, so the engine can restore
/// its invariants before propagating a failure.
struct StepAwaiter {
  Sched::promise_type* promise;
  [[nodiscard]] bool await_ready() const noexcept {
    return promise->finished;
  }
  [[nodiscard]] std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> stepper) const noexcept {
    promise->step_continuation = stepper;
    return promise->resume_point;
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
    lanes_.push_back(std::make_unique<Lane>(
        api, rcce::Layout::lane(p, which, lanes), prims));
    // Multi-lane interleaving needs poll-and-yield completions (see
    // Yielder::cooperative); one lane keeps blocking-API-identical timing.
    lanes_.back()->yielder.set_cooperative(lanes > 1);
  }
}

// Requests go round-robin over lanes by initiation index; the i*() helpers
// must build the schedule against the SAME lane enqueue() will file it in.
ProgressEngine::Lane& ProgressEngine::next_lane() {
  return *lanes_[static_cast<std::size_t>(
      next_id_ % static_cast<RequestId>(lanes_.size()))];
}

CollRequest ProgressEngine::enqueue(Sched sched) {
  Lane& lane = next_lane();
  const RequestId id = next_id_++;
  lane.queue.push_back(Pending{id, std::move(sched)});
  return CollRequest{this, id};
}

CollRequest ProgressEngine::ibcast(std::span<double> data, int root,
                                   SplitPolicy policy) {
  return enqueue(run_bcast(next_lane().stack, data, root, policy));
}

CollRequest ProgressEngine::iallreduce(std::span<const double> in,
                                       std::span<double> out, ReduceOp op,
                                       SplitPolicy policy, Algo algo) {
  return enqueue(run_allreduce(next_lane().stack, in, out, op, policy, algo));
}

CollRequest ProgressEngine::iallgather(std::span<const double> contribution,
                                       std::span<double> gathered, Algo algo) {
  return enqueue(run_allgather(next_lane().stack, contribution, gathered,
                               algo));
}

CollRequest ProgressEngine::ialltoall(std::span<const double> sendbuf,
                                      std::span<double> recvbuf, Algo algo) {
  return enqueue(run_alltoall(next_lane().stack, sendbuf, recvbuf, algo));
}

sim::Task<> ProgressEngine::step_lane(Lane& lane) {
  SCC_EXPECTS(!lane.queue.empty());
  // No re-entrant stepping: a schedule must not call back into the engine.
  SCC_EXPECTS(lane.yielder.active == nullptr);
  Pending& head = lane.queue.front();
  Sched::promise_type& promise = head.sched.promise();
  lane.yielder.active = &promise;
  co_await StepAwaiter{&promise};
  lane.yielder.active = nullptr;
  if (promise.finished) {
    // Retire before propagating any failure so the engine stays usable.
    std::exception_ptr failure = promise.exception;
    lane.queue.pop_front();
    if (failure) std::rethrow_exception(failure);
  }
}

sim::Task<> ProgressEngine::progress() {
  for (auto& lane : lanes_) {
    if (lane->queue.empty()) continue;
    co_await step_lane(*lane);
  }
}

bool ProgressEngine::done(RequestId id) const {
  SCC_EXPECTS(id < next_id_);
  for (const auto& lane : lanes_) {
    for (const Pending& p : lane->queue) {
      if (p.id == id) return false;
    }
  }
  return true;
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
