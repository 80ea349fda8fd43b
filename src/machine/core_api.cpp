#include "machine/core_api.hpp"

#include <cstdio>

#include "common/string_util.hpp"
#include "machine/scc_machine.hpp"

namespace scc::machine {

CoreApi::CoreApi(SccMachine& machine, int rank)
    : machine_(&machine), rank_(rank), engine_(&machine.engine()) {
  SCC_EXPECTS(rank >= 0 && rank < machine.num_cores());
}

int CoreApi::num_cores() const { return machine_->num_cores(); }

SimTime CoreApi::now() const { return engine_->now(); }

const mem::CostModel& CoreApi::cost() const {
  return machine_->config().cost;
}

sim::Engine::Sleep CoreApi::charge_impl(Phase phase, SimTime duration,
                                        std::string_view detail) {
  profile_.add(phase, duration);
  if (auto* trace = machine_->trace()) {
    const SimTime start = now();
    trace->interval(rank_, phase_name(phase), start, start + duration,
                    std::string(detail));
  }
  return engine_->sleep_for(duration);
}

Charge CoreApi::compute(std::uint64_t core_cycles) {
  return charge_impl(Phase::kCompute,
                     machine_->latency().core_cycles(core_cycles, rank_));
}

Charge CoreApi::overhead(std::uint64_t core_cycles) {
  return charge_impl(Phase::kSwOverhead,
                     machine_->latency().core_cycles(core_cycles, rank_));
}

Charge CoreApi::wait_poll(std::uint64_t core_cycles,
                          std::uint64_t after_cycles) {
  const auto& latency = machine_->latency();
  return charge_impl(Phase::kFlagWait,
                     latency.core_cycles(after_cycles + core_cycles, rank_) -
                         latency.core_cycles(after_cycles, rank_));
}

Charge CoreApi::charge(Phase phase, SimTime duration) {
  return charge_impl(phase, duration);
}

SimTime CoreApi::contention_delay(int from, int to, std::size_t bytes) {
  if (!cost().hw.model_link_contention || from == to) return SimTime::zero();
  return machine_->contention().occupy(from, to, mem::lines_for(bytes),
                                       engine_->now());
}

SimTime CoreApi::with_transfer(SimTime t, int mpb_owner, std::size_t bytes,
                               bool is_read) {
  if (mpb_owner == rank_) return t;
  const int from = is_read ? mpb_owner : rank_;
  const int to = is_read ? rank_ : mpb_owner;
  machine_->traffic().record_transfer(from, to, mem::lines_for(bytes));
  return t + contention_delay(from, to, bytes);
}

MpbStoreCharge CoreApi::mpb_put(mem::MpbAddr dst,
                                std::span<const std::byte> src) {
  const SimTime t = with_transfer(
      machine_->latency().mpb_bulk(rank_, dst.core, src.size(),
                                   /*is_read=*/false),
      dst.core, src.size(), /*is_read=*/false);
  return {charge_impl(Phase::kMpbTransfer, t), {&machine_->mpb(), dst, src}};
}

MpbLoadCharge CoreApi::mpb_get(mem::MpbAddr src, std::span<std::byte> dst) {
  const SimTime t = with_transfer(
      machine_->latency().mpb_bulk(rank_, src.core, dst.size(),
                                   /*is_read=*/true),
      src.core, dst.size(), /*is_read=*/true);
  return {charge_impl(Phase::kMpbTransfer, t), {&machine_->mpb(), src, dst}};
}

Charge CoreApi::mpb_charge(int mpb_owner, std::size_t bytes, bool is_read) {
  const SimTime t = with_transfer(
      machine_->latency().mpb_bulk(rank_, mpb_owner, bytes, is_read),
      mpb_owner, bytes, is_read);
  return charge_impl(Phase::kMpbTransfer, t);
}

Charge CoreApi::mpb_word_charge(int mpb_owner, std::size_t bytes,
                                bool is_read) {
  const SimTime t = with_transfer(
      machine_->latency().mpb_word_stream(rank_, mpb_owner, bytes, is_read),
      mpb_owner, bytes, is_read);
  return charge_impl(Phase::kMpbTransfer, t);
}

MpbLoadCharge CoreApi::mpb_word_get(mem::MpbAddr src,
                                    std::span<std::byte> dst) {
  const SimTime t = with_transfer(
      machine_->latency().mpb_word_stream(rank_, src.core, dst.size(),
                                          /*is_read=*/true),
      src.core, dst.size(), /*is_read=*/true);
  return {charge_impl(Phase::kMpbTransfer, t), {&machine_->mpb(), src, dst}};
}

std::span<std::byte> CoreApi::mpb_window(mem::MpbAddr addr,
                                         std::size_t bytes) {
  return machine_->mpb().range(addr, bytes);
}

namespace {
// Charges are normalized to whole cache lines starting at the pointer's
// line so the line COUNT depends only on the byte count, never on where
// the host allocator placed the buffer (run-to-run determinism).
std::uintptr_t norm_base(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) & ~std::uintptr_t{mem::kCacheLineBytes - 1};
}
std::size_t norm_bytes(std::size_t bytes) {
  return mem::lines_for(bytes) * mem::kCacheLineBytes;
}
}  // namespace

Charge CoreApi::priv_read(const void* p, std::size_t bytes) {
  const auto result =
      machine_->cache(rank_).touch_read(norm_base(p), norm_bytes(bytes));
  return charge_impl(Phase::kPrivMem,
                     machine_->latency().priv_access(rank_, result));
}

Charge CoreApi::priv_write(void* p, std::size_t bytes) {
  const auto result =
      machine_->cache(rank_).touch_write(norm_base(p), norm_bytes(bytes));
  return charge_impl(Phase::kPrivMem,
                     machine_->latency().priv_access(rank_, result));
}

FlagSetCharge CoreApi::flag_set(FlagRef ref, FlagValue value) {
  SimTime t =
      machine_->latency().mpb_line_access(rank_, ref.owner_core,
                                          /*is_read=*/false) +
      machine_->latency().core_cycles(cost().sw.flag_op, rank_);
  t += contention_delay(rank_, ref.owner_core, 1);
  // The deposit lands at the END of this charge; the "set c:i" detail lets
  // the blame engine pair a waiter's wakeup with the setting core (the
  // waiter's wait interval ends exactly when this interval does).
  char detail[32] = "";
  if (machine_->trace() != nullptr) {
    std::snprintf(detail, sizeof detail, "set %d:%d", ref.owner_core,
                  ref.index);
  }
  return {charge_impl(Phase::kFlagOp, t, detail),
          {&machine_->flags(), ref, value}};
}

sim::Task<> CoreApi::flag_wait(FlagRef ref, FlagValue value) {
  auto& flags = machine_->flags();
  const SimTime start = now();
  while (flags.value(ref) != value) {
    co_await flags.waiters(ref).wait();
  }
  profile_.add(Phase::kFlagWait, now() - start);
  if (auto* trace = machine_->trace()) {
    trace->interval(rank_, phase_name(Phase::kFlagWait), start, now(),
                    strprintf("flag %d:%d", ref.owner_core, ref.index));
  }
  // The read that detects the value: the final poll iteration of
  // wait_until, so it profiles as wait time, not as a standalone flag op.
  const SimTime t =
      machine_->latency().mpb_line_access(rank_, ref.owner_core,
                                          /*is_read=*/true) +
      machine_->latency().core_cycles(cost().sw.flag_op, rank_);
  co_await charge_impl(Phase::kFlagWait, t);
}

sim::Task<FlagValue> CoreApi::flag_wait_change(FlagRef ref,
                                               FlagValue last_seen) {
  auto& flags = machine_->flags();
  const SimTime start = now();
  while (flags.value(ref) == last_seen) {
    co_await flags.waiters(ref).wait();
  }
  profile_.add(Phase::kFlagWait, now() - start);
  if (auto* trace = machine_->trace()) {
    trace->interval(rank_, phase_name(Phase::kFlagWait), start, now(),
                    strprintf("flag %d:%d", ref.owner_core, ref.index));
  }
  const SimTime t =
      machine_->latency().mpb_line_access(rank_, ref.owner_core,
                                          /*is_read=*/true) +
      machine_->latency().core_cycles(cost().sw.flag_op, rank_);
  co_await charge_impl(Phase::kFlagWait, t);
  co_return machine_->flags().value(ref);
}

FlagReadCharge CoreApi::flag_read(FlagRef ref) {
  const SimTime t = machine_->latency().mpb_line_access(rank_, ref.owner_core,
                                                        /*is_read=*/true);
  return {charge_impl(Phase::kFlagOp, t), {&machine_->flags(), ref}};
}

FlagValue CoreApi::flag_peek(FlagRef ref) const {
  return machine_->flags().value(ref);
}

sim::Task<> CoreApi::sync_barrier() {
  // The last arriver releases everyone at its own arrival instant.
  auto& barrier = machine_->harness_barrier();
  const std::uint64_t my_generation = barrier.generation;
  if (++barrier.arrived == num_cores()) {
    barrier.arrived = 0;
    ++barrier.generation;
    barrier.queue.notify_all();
    co_return;
  }
  while (barrier.generation == my_generation) {
    co_await barrier.queue.wait();
  }
}

}  // namespace scc::machine
