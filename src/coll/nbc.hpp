// Non-blocking collectives (coll::nbc): the collective kernels' own
// coroutines, stepped round by round by a per-core ProgressEngine over the
// existing Stack abstraction.
//
// A collective schedule is an ordinary kernel Task (the same code the
// blocking API runs) whose round boundaries `co_await stack.round_gate()`.
// With a LaneYield attached, each gate parks the suspended frame in the
// lane and symmetric-transfers back to the progress pass stepping it; a
// finished schedule returns through its Task's own final awaiter, and its
// exception through Task::failure(). So one core can hold any number of
// collectives in flight and advance them round by round between slices of
// compute. Detached (the blocking API), every gate is a free no-op -- zero
// events, zero simulated time -- so blocking behaviour and committed
// baselines are untouched.
//
// Concurrency model -- lanes. The RCCE-family wire protocol is untagged:
// each (src, dst) pair shares one FIFO flag channel, so two collectives
// whose messages interleave differently on different cores would cross
// streams and fetch each other's payloads. The engine therefore partitions
// the flag index space and MPB payload into `lanes` sublayouts
// (rcce::Layout::lane); each lane owns a full Stack and executes its queue
// strictly FIFO (only the head schedule is stepped). Requests are assigned
// lanes round-robin by id (initiation index), which is globally consistent
// because initiation order is SPMD: every core must initiate the same
// collectives in the same order, exactly as with the blocking API. Within
// a lane, messages serialize in schedule order; across lanes nothing is
// shared, so concurrent schedules cannot cross. One lane reproduces the
// blocking traffic bit-exactly; more lanes buy real overlap at the price
// of a smaller per-lane chunk size.
//
// Request lifecycle: i*() queues the kernel's suspended Task and returns a
// CollRequest. No simulated time is charged at initiation; the kernel's
// own coll_call overhead lands on the first step. progress() runs one pass
// (each lane head advances one round), done() reports completion without
// progressing, and wait() loops progress until done. Because lane
// `id % lanes` holds request `id` and retires in id order, done(id) reads
// one queue head. See DESIGN.md §17.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/stack.hpp"
#include "rcce/layout.hpp"
#include "sim/task.hpp"

namespace scc::coll::nbc {

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
  struct Pending {
    RequestId id;
    sim::Task<> schedule;
  };

  /// One lane: a full sublayout Stack, the yield state its round gates
  /// write, and its FIFO of schedules. Heap-allocated so the Layout and
  /// LaneYield addresses handed to the Stack stay stable.
  struct Lane {
    Lane(machine::CoreApi& api, rcce::Layout lay, Prims prims,
         bool cooperative)
        : layout(lay), stack(api, layout, prims) {
      yield.cooperative = cooperative;
      stack.attach(&yield);
    }
    rcce::Layout layout;
    LaneYield yield;
    Stack stack;
    std::deque<Pending> queue;
  };

  /// The lane that holds request `id` (round-robin by id).
  [[nodiscard]] Lane& lane_of(RequestId id) const;
  CollRequest enqueue(sim::Task<> schedule);

  std::vector<std::unique_ptr<Lane>> lanes_;
  RequestId next_id_ = 0;
};

}  // namespace scc::coll::nbc
