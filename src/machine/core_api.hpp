// CoreApi: the per-core "instruction set" of the simulated SCC.
//
// Every operation a simulated core performs that costs virtual time is an
// awaitable method here. Each op (a) charges latency from the cost model,
// attributed to a profiling phase, and (b) applies its functional effect to
// real storage, so the simulation is simultaneously a timing model and an
// executable implementation whose results tests can verify.
//
// Timing semantics: all operations are core-blocking -- the core's virtual
// time advances by the full charge before the next operation issues. Posted
// remote writes (data puts, flag sets) include their one-way mesh transit
// in the charge, so a value is globally visible no earlier than the
// operation's completion; this is slightly conservative and keeps the
// protocol layers free of reordering concerns (RCCE issues an MPB fence
// before flag writes on the real chip for the same reason).
#pragma once

#include <coroutine>
#include <cstddef>
#include <span>
#include <string_view>
#include <type_traits>

#include "common/time.hpp"
#include "machine/flags.hpp"
#include "machine/profile.hpp"
#include "mem/cache.hpp"
#include "mem/cost_model.hpp"
#include "mem/latency.hpp"
#include "mem/mpb.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace scc::machine {

class SccMachine;

/// Awaiter returned by the leaf CoreApi ops with a completion effect: it
/// sleeps the calling coroutine for the op's charge, then runs `Effect` on
/// resume and returns its result. The op computes the charge and records it (profile, trace)
/// when called; callers co_await the op in the same full expression, so
/// that is the instant the charge issues. No frame, no allocation; the
/// awaiter and every effect are trivially copyable, so a co_await
/// temporary cannot own anything (DESIGN.md §16).
template <typename Effect>
struct [[nodiscard]] ChargeAwaiter {
  sim::Engine::Sleep sleep;
  Effect effect;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sleep.await_suspend(h);
  }
  auto await_resume() const { return effect(); }
};

/// Completion effects.
struct MpbStore {
  mem::MpbStorage* mpb;
  mem::MpbAddr dst;
  std::span<const std::byte> src;
  void operator()() const { mpb->write(dst, src); }
};
struct MpbLoad {
  const mem::MpbStorage* mpb;
  mem::MpbAddr src;
  std::span<std::byte> dst;
  void operator()() const { mpb->read(src, dst); }
};
struct FlagDeposit {
  FlagFile* flags;
  FlagRef ref;
  FlagValue value;
  void operator()() const { flags->deposit(ref, value); }
};
struct FlagLoad {
  const FlagFile* flags;
  FlagRef ref;
  [[nodiscard]] FlagValue operator()() const { return flags->value(ref); }
};

/// A charge with no completion effect is the bare sleep.
using Charge = sim::Engine::Sleep;
using MpbStoreCharge = ChargeAwaiter<MpbStore>;
using MpbLoadCharge = ChargeAwaiter<MpbLoad>;
using FlagSetCharge = ChargeAwaiter<FlagDeposit>;
using FlagReadCharge = ChargeAwaiter<FlagLoad>;
static_assert(std::is_trivially_copyable_v<Charge>);
static_assert(std::is_trivially_copyable_v<MpbStoreCharge>);
static_assert(std::is_trivially_copyable_v<MpbLoadCharge>);
static_assert(std::is_trivially_copyable_v<FlagSetCharge>);
static_assert(std::is_trivially_copyable_v<FlagReadCharge>);

class CoreApi {
 public:
  CoreApi(SccMachine& machine, int rank);

  CoreApi(const CoreApi&) = delete;
  CoreApi& operator=(const CoreApi&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int num_cores() const;
  [[nodiscard]] SimTime now() const;
  [[nodiscard]] const mem::CostModel& cost() const;
  [[nodiscard]] CoreProfile& profile() { return profile_; }
  [[nodiscard]] SccMachine& machine() { return *machine_; }

  // --- time-only operations -------------------------------------------
  /// Application arithmetic: n core cycles of compute.
  Charge compute(std::uint64_t core_cycles);
  /// Library instruction-path overhead: n core cycles.
  Charge overhead(std::uint64_t core_cycles);
  /// Busy poll-loop cycles inside rcce_wait_until-style spin waits, charged
  /// to Phase::kFlagWait: a function-level profiler attributes them to the
  /// wait primitive even when the flag is already up (paper Section IV-A).
  /// `after_cycles` names the preceding same-site charge: the poll duration
  /// is computed as cycles(after + poll) - cycles(after) so a split charge
  /// pair sums bit-exactly to the unsplit total (Clock::cycles rounds).
  Charge wait_poll(std::uint64_t core_cycles, std::uint64_t after_cycles = 0);
  /// Raw charge attributed to an explicit phase.
  Charge charge(Phase phase, SimTime duration);

  // --- MPB data movement ----------------------------------------------
  /// Copies bytes from this core's private buffer into an MPB.
  MpbStoreCharge mpb_put(mem::MpbAddr dst, std::span<const std::byte> src);
  /// Copies bytes from an MPB into this core's private buffer.
  MpbLoadCharge mpb_get(mem::MpbAddr src, std::span<std::byte> dst);
  /// Timing-only MPB access charge (fused kernels apply their own effect).
  Charge mpb_charge(int mpb_owner, std::size_t bytes, bool is_read);
  /// Timing-only charge for word-granular uncached MPB streaming (the
  /// direct-reduction data path of Section IV-D).
  Charge mpb_word_charge(int mpb_owner, std::size_t bytes, bool is_read);
  /// Fused word-granular MPB read: charges mpb_word_stream for dst.size()
  /// bytes (traffic/contention included, like mpb_word_charge) and copies
  /// them from `src` into the caller's private buffer at completion --
  /// the mpb_word_charge-then-mpb_window idiom as one awaiter.
  MpbLoadCharge mpb_word_get(mem::MpbAddr src, std::span<std::byte> dst);

  /// Direct functional access to MPB storage (no charge): used by fused
  /// kernels together with mpb_charge, and by tests.
  [[nodiscard]] std::span<std::byte> mpb_window(mem::MpbAddr addr,
                                                std::size_t bytes);

  // --- private (cacheable, off-chip) memory ----------------------------
  Charge priv_read(const void* p, std::size_t bytes);
  Charge priv_write(void* p, std::size_t bytes);

  // --- synchronization flags -------------------------------------------
  /// Writes a flag value (local or remote MPB write + fence).
  FlagSetCharge flag_set(FlagRef ref, FlagValue value);
  /// Blocks until the flag equals `value`; charges the detecting read (the
  /// final poll iteration). Wait time and the detecting read are both
  /// attributed to Phase::kFlagWait (rcce_wait_until).
  [[nodiscard]] sim::Task<> flag_wait(FlagRef ref, FlagValue value);
  /// Blocks until the flag differs from `last_seen`; returns the new value
  /// and charges the detecting read. Used for cumulative-counter flags
  /// (e.g. the RCKMPI channel's line counters), where equality waits could
  /// miss intermediate values.
  [[nodiscard]] sim::Task<FlagValue> flag_wait_change(FlagRef ref,
                                                      FlagValue last_seen);
  /// Non-blocking probe: charges one flag read, returns current value.
  FlagReadCharge flag_read(FlagRef ref);
  /// Zero-cost peek for simulator-internal decisions (not charged).
  [[nodiscard]] FlagValue flag_peek(FlagRef ref) const;

  // --- harness-only ------------------------------------------------------
  /// Zero-cost rendezvous of all cores; exists so experiments can align
  /// cores before timing without perturbing the measured protocol.
  [[nodiscard]] sim::Task<> sync_barrier();

 private:
  /// Records a charge (profile, and the traced interval when a recorder is
  /// attached) and returns the sleep that pays it. `detail` annotates the
  /// traced interval (e.g. "set 3:7" on the flag-set charge so the blame
  /// engine can match waiters to their setter); it is copied only when
  /// tracing.
  [[nodiscard]] sim::Engine::Sleep charge_impl(Phase phase, SimTime duration,
                                               std::string_view detail = {});
  /// Traffic and contention for a bulk or word-stream MPB access by this
  /// core to `mpb_owner`'s MPB, added to its latency `t`.
  [[nodiscard]] SimTime with_transfer(SimTime t, int mpb_owner,
                                      std::size_t bytes, bool is_read);
  /// Extra queueing delay from the optional link-contention model.
  [[nodiscard]] SimTime contention_delay(int from, int to, std::size_t bytes);

  SccMachine* machine_;
  int rank_;
  sim::Engine* engine_;  // the machine's engine (cached)
  CoreProfile profile_;
};

}  // namespace scc::machine
