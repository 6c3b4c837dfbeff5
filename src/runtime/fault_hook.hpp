#pragma once

/// \file fault_hook.hpp
/// The runtime side of the fault plane: a tiny decision interface the
/// runtime consults on every send and every drain visit when a hook is
/// installed. The concrete implementation (seeded profiles, straggler and
/// crash schedules) lives in src/fault. With no hook installed the cost is
/// one pointer test per send/drain — the same dormant-cost discipline as
/// the obs layer (see bench/micro_fault.cpp for the measurement).
///
/// Semantics the runtime implements for each decision:
///   drop      — the message never enters a mailbox; it is recorded in
///               NetworkStats and forgotten. The in-flight counter is not
///               incremented, so quiescence is unaffected.
///   duplicate — the message is delivered twice. The clone is marked
///               fault-exempt so a duplicate cannot fission further.
///   delay     — the message is parked in the destination mailbox's delay
///               queue and released after `delay_polls` drain visits of
///               that rank. Delayed messages stay in flight, so quiescence
///               waits for them: a delay can reorder but never lose.
///   deliver   — normal enqueue.
///
/// Drain gating models slow and dead ranks:
///   open    — drain normally.
///   stalled — skip this visit (transient stall, straggler off-beat).
///   crashed — the rank is dead: the runtime purges its mailbox (queued
///             and delayed alike), counting every purged message as
///             dropped so the in-flight counter still reaches zero and
///             quiescence detection is never wedged.

#include <cstdint>

#include "runtime/network_stats.hpp"
#include "support/types.hpp"

namespace tlb::rt {

/// What the fault plane decided for one send.
enum class FaultAction : std::uint8_t { deliver, drop, duplicate, delay };

struct FaultDecision {
  FaultAction action = FaultAction::deliver;
  /// For FaultAction::delay: how many drain visits of the destination rank
  /// to hold the message back.
  std::uint32_t delay_polls = 0;
};

/// Outcome of asking the fault plane whether a rank may drain.
enum class DrainGate : std::uint8_t { open, stalled, crashed };

/// Abstract decision interface. Implementations must be deterministic
/// given their seed, and thread-safe under the runtime's execution model:
/// on_send is invoked from the *sending* rank's handler thread (or the
/// driver thread, with from == invalid_rank), on_drain from the rank's
/// owning worker.
class FaultHook {
public:
  virtual ~FaultHook() = default;
  FaultHook() = default;
  FaultHook(FaultHook const&) = delete;
  FaultHook& operator=(FaultHook const&) = delete;

  /// Decide the fate of one message at send time. `from` is invalid_rank
  /// for driver-injected work.
  [[nodiscard]] virtual FaultDecision on_send(RankId from, RankId to,
                                              MessageKind kind) = 0;

  /// Gate one drain visit of `rank`; `poll` is the rank's monotone drain
  /// visit counter (so stall windows and crash points are expressed in a
  /// deterministic, driver-independent unit).
  [[nodiscard]] virtual DrainGate on_drain(RankId rank, std::uint64_t poll) = 0;
};

} // namespace tlb::rt
