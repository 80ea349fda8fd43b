// Non-blocking collectives (coll::nbc): resumable schedule state machines
// over the existing Stack abstraction, driven by a per-core ProgressEngine.
//
// A collective schedule is an ordinary kernel coroutine (the same code the
// blocking API runs) whose round boundaries `co_await stack.round_gate()`.
// With a Yielder attached, each gate suspends the schedule and symmetric-
// transfers control back to the engine's stepper, so one core can hold any
// number of collectives in flight and advance them round by round between
// slices of compute. Detached (the blocking API), every gate is a free
// no-op -- zero events, zero simulated time -- so blocking behaviour and
// committed baselines are untouched.
//
// Concurrency model -- lanes. The RCCE-family wire protocol is untagged:
// each (src, dst) pair shares one FIFO flag channel, so two collectives
// whose messages interleave differently on different cores would cross
// streams and fetch each other's payloads. The engine therefore partitions
// the flag index space and MPB payload into `lanes` sublayouts
// (rcce::Layout::lane); each lane owns a full Stack and executes its queue
// strictly FIFO (only the head schedule is stepped). Requests are assigned
// lanes round-robin by initiation index, which is globally consistent
// because initiation order is SPMD: every core must initiate the same
// collectives in the same order, exactly as with the blocking API. Within
// a lane, messages serialize in schedule order; across lanes nothing is
// shared, so concurrent schedules cannot cross. One lane reproduces the
// blocking traffic bit-exactly; more lanes buy real overlap at the price
// of a smaller per-lane chunk size.
//
// Request lifecycle: i*() enqueues a suspended schedule and returns a
// CollRequest. No simulated time is charged at initiation; the kernel's
// own coll_call overhead lands on the first step. progress() runs one pass
// (each lane head advances one round), done() reports completion without
// progressing, and wait() loops progress until done. See DESIGN.md §17.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <span>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/stack.hpp"
#include "rcce/layout.hpp"
#include "sim/frame_arena.hpp"
#include "sim/task.hpp"

namespace scc::coll::nbc {

/// Root coroutine of one in-flight collective schedule. Lazily started;
/// each step runs from the stored resume point to the next round gate (or
/// to completion). The promise is the Yielder bridge: on_round stores the
/// suspended frame here and transfers back to the stepper.
class Sched {
 public:
  struct promise_type {
    static void* operator new(std::size_t bytes) {
      return sim::frame_alloc(bytes);
    }
    static void operator delete(void* block, std::size_t bytes) noexcept {
      sim::frame_free(block, bytes);
    }

    std::coroutine_handle<> resume_point;      // next step resumes here
    std::coroutine_handle<> step_continuation; // stepper awaiting this step
    std::exception_ptr exception;
    bool finished = false;

    Sched get_return_object() {
      auto h = std::coroutine_handle<promise_type>::from_promise(*this);
      resume_point = h;  // first step starts the root coroutine
      return Sched{h};
    }
    [[nodiscard]] std::suspend_always initial_suspend() const noexcept {
      return {};
    }
    struct FinalAwaiter {
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        h.promise().finished = true;
        return h.promise().step_continuation;
      }
      void await_resume() const noexcept {}
    };
    [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() noexcept {
      exception = std::current_exception();
    }
  };

  Sched() = default;
  Sched(Sched&& other) noexcept
      : handle_(std::exchange(other.handle_, {})) {}
  Sched& operator=(Sched&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Sched(const Sched&) = delete;
  Sched& operator=(const Sched&) = delete;
  ~Sched() { destroy(); }

  [[nodiscard]] promise_type& promise() const { return handle_.promise(); }
  [[nodiscard]] bool finished() const {
    return handle_ && handle_.promise().finished;
  }

 private:
  explicit Sched(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

/// Engine-issued request id; strictly increasing per (core, engine) in
/// initiation order, identical across cores for an SPMD program.
using RequestId = std::uint64_t;

class ProgressEngine;

/// Handle to one in-flight collective. Copyable; validity is tied to the
/// issuing engine's lifetime.
class CollRequest {
 public:
  CollRequest() = default;
  CollRequest(ProgressEngine* engine, RequestId id)
      : engine_(engine), id_(id) {}

  [[nodiscard]] RequestId id() const { return id_; }
  /// Completed without further progress? (Zero-cost peek.)
  [[nodiscard]] bool done() const;
  /// Progress until this request completes.
  [[nodiscard]] sim::Task<> wait();

 private:
  ProgressEngine* engine_ = nullptr;
  RequestId id_ = 0;
};

/// Per-core progress engine: owns `lanes` sublayout Stacks and the FIFO
/// queues of in-flight schedules. All i*() initiations must be SPMD
/// (same collectives, same order on every core), like the blocking API.
class ProgressEngine {
 public:
  ProgressEngine(machine::CoreApi& api, Prims prims, int lanes = 1);
  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  // --- initiation (no simulated time charged; the kernel's coll_call
  // overhead lands on the first step) ------------------------------------
  // Default algorithms mirror the blocking API exactly, so an nbc call with
  // defaulted algo runs the same schedule as its blocking counterpart.
  CollRequest ibcast(std::span<double> data, int root, SplitPolicy policy);
  CollRequest iallreduce(std::span<const double> in, std::span<double> out,
                         ReduceOp op, SplitPolicy policy,
                         Algo algo = Algo::kRingRS);
  CollRequest iallgather(std::span<const double> contribution,
                         std::span<double> gathered, Algo algo = Algo::kRing);
  CollRequest ialltoall(std::span<const double> sendbuf,
                        std::span<double> recvbuf,
                        Algo algo = Algo::kPairwise);

  // --- progress ----------------------------------------------------------
  /// One pass: advance the head schedule of every non-empty lane by one
  /// step (one communication round, or to completion).
  [[nodiscard]] sim::Task<> progress();
  /// True when `id` has completed (no progress performed).
  [[nodiscard]] bool done(RequestId id) const;
  /// True when no schedule is in flight.
  [[nodiscard]] bool idle() const;
  /// Progress until `id` has completed.
  [[nodiscard]] sim::Task<> wait(RequestId id);

 private:
  /// Yielder bridging a lane's Stack to the schedule currently stepping.
  class LaneYielder final : public Yielder {
   public:
    Sched::promise_type* active = nullptr;
    [[nodiscard]] std::coroutine_handle<> on_round(
        std::coroutine_handle<> frame) noexcept override {
      active->resume_point = frame;
      return active->step_continuation;
    }
  };

  struct Pending {
    RequestId id;
    Sched sched;
  };

  /// One lane: a full sublayout Stack plus its FIFO of schedules. Heap-
  /// allocated so the Layout address handed to Rcce stays stable.
  struct Lane {
    Lane(machine::CoreApi& api, rcce::Layout lay, Prims prims)
        : layout(lay), stack(api, layout, prims) {
      stack.set_yielder(&yielder);
    }
    rcce::Layout layout;
    LaneYielder yielder;
    Stack stack;
    std::deque<Pending> queue;
  };

  [[nodiscard]] Lane& next_lane();
  CollRequest enqueue(Sched sched);
  [[nodiscard]] sim::Task<> step_lane(Lane& lane);

  std::vector<std::unique_ptr<Lane>> lanes_;
  RequestId next_id_ = 0;
};

}  // namespace scc::coll::nbc
