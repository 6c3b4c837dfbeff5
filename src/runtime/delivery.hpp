#pragma once

/// \file delivery.hpp
/// The one delivery protocol of the two LB stages that hand items from
/// rank to rank: the transfer epoch's proposals (gossip_strategy.cpp) and
/// the migration commit's payloads (object_store.cpp). A DeliveryBatch
/// carries items, named only by (origin, index), from origin to
/// destination ranks. The destination's apply hook runs at most once per
/// item and accepts or rejects it; a rejected item travels back to its
/// origin's return hook; settle() returns at a quiescent point with every
/// item accepted, rejected or lost.
///
/// The batch reads rt.fault_active() once, at construction; it is the
/// only place delivery looks at the fault plane. Fault-free, an item is
/// one message of its own bytes and a rejection bounces one message of
/// the same size back: no acks, no retries, the message pattern the
/// goldens pin. Under a fault plane an item also carries an 8-byte
/// sequence number (origin << 32 | index); the destination records the
/// outcome it decides in the item, replays it for a duplicate or retry
/// instead of applying again, and answers with a 9-byte ack. Unacked
/// items are resent with capped exponential backoff (the constants
/// below), then reconciled against the destination's record (DESIGN.md
/// "Resilient protocols").
///
/// Lifetime and threading. Messages carry a trivially copyable {batch,
/// origin, index} closure, so the batch must stay alive, and in place,
/// until settle()'s last run_until_quiescent returns. Each origin adds all
/// its items before its first send and never again. An item's outcome has
/// one writer per mode (the destination on a fault-free accept, otherwise
/// the origin's reply handler), and its fault-mode record has one, the
/// destination's handlers; the driver touches items only at quiescent
/// points.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/runtime.hpp"
#include "support/types.hpp"

namespace tlb::rt {

/// Fault-mode retry schedule. An item is sent at most kMaxDeliveryAttempts
/// times, the first send included; an item still unacked after the last
/// is settled from the destination's record. Attempt k's resend is parked
/// for kBackoffBasePolls << (k-1) drain polls of its origin, capped at
/// kMaxBackoffPolls.
inline constexpr int kMaxDeliveryAttempts = 4;
inline constexpr std::uint64_t kBackoffBasePolls = 8;
inline constexpr std::uint64_t kMaxBackoffPolls = 1024;

/// What an item does at its two ends.
class DeliveryHooks {
public:
  virtual ~DeliveryHooks() = default;
  DeliveryHooks() = default;
  DeliveryHooks(DeliveryHooks const&) = delete;
  DeliveryHooks& operator=(DeliveryHooks const&) = delete;

  /// On destination rank `at`, at most once per item: true accepts it.
  virtual bool apply(RankId at, RankId origin, std::uint32_t index) = 0;

  /// Exactly once per item that was not accepted: on the origin rank when
  /// the rejection arrives, or on the driver inside settle() for an item
  /// whose reply never did.
  virtual void give_back(RankId origin, std::uint32_t index) = 0;
};

/// Where an item ended; pending only until settle() returns. `lost`
/// means no attempt reached the destination.
enum class DeliveryOutcome : std::uint8_t { pending, accepted, rejected, lost };

/// One stage's items in flight; see the file comment for the protocol and
/// the lifetime rules.
class DeliveryBatch {
public:
  DeliveryBatch(Runtime& rt, MessageKind kind, DeliveryHooks& hooks);
  DeliveryBatch(DeliveryBatch const&) = delete;
  DeliveryBatch& operator=(DeliveryBatch const&) = delete;

  /// Add origin's next item (indices count up from 0 per origin), bound
  /// for `to` with `bytes` modeled bytes. Called on the origin rank's
  /// handler, or on the driver, before the origin's first send.
  void add(RankId origin, RankId to, std::size_t bytes);

  /// On the origin rank's handler: the first attempt of each of its items.
  void send(RankContext& ctx);

  /// On the driver: the first attempt of every item, each through its own
  /// 0-byte driver post to its origin, origin by origin.
  void post();

  struct Settlement {
    /// False if any run to quiescence hit the liveness budget.
    bool quiescent = true;
    /// Items still unresolved when sending stopped, each settled from the
    /// destination's record.
    std::size_t exhausted = 0;
  };

  /// On the driver: run to quiescence; under a fault plane, resend every
  /// unacked item until acked or out of attempts; then settle the rest.
  Settlement settle();

  [[nodiscard]] DeliveryOutcome outcome(RankId origin,
                                        std::uint32_t index) const {
    return items_[static_cast<std::size_t>(origin)][index].outcome;
  }

private:
  struct Item {
    std::size_t bytes = 0;
    RankId to = invalid_rank;
    /// Sends so far, the first included (read and written by the driver).
    int attempts = 1;
    DeliveryOutcome outcome = DeliveryOutcome::pending;
    /// Fault mode: what the destination decided, accepted or rejected
    /// (pending until it first applies the item). Written only by `to`'s
    /// handlers; settle() reads it at quiescent points.
    DeliveryOutcome decided = DeliveryOutcome::pending;
  };

  /// Origin side: one send of `index` from ctx.rank().
  void attempt(RankContext& ctx, std::uint32_t index);
  /// Destination side: decide (or replay) and answer.
  void deliver(RankContext& ctx, RankId origin, std::uint32_t index);
  /// Origin side: the destination's answer.
  void resolve(RankId origin, std::uint32_t index, bool accepted);
  /// Driver side: a post to `origin` that makes one attempt.
  void post_attempt(RankId origin, std::uint32_t index,
                    std::uint64_t delay_polls);
  /// Driver side: fn(origin, index, item) for each unresolved item.
  template <class Fn> void for_each_pending(Fn const& fn);

  Runtime& rt_;
  MessageKind kind_;
  DeliveryHooks& hooks_;
  bool resilient_;
  /// items_[origin][index]; each row is grown only by its origin.
  std::vector<std::vector<Item>> items_;
};

} // namespace tlb::rt
