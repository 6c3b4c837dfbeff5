#include "runtime/delivery.hpp"

#include <algorithm>
#include <type_traits>

#include "support/assert.hpp"

namespace tlb::rt {

namespace {

/// Fault-mode wire overhead: the item's sequence number (origin << 32 |
/// index), and an ack that is the sequence plus the outcome byte.
constexpr std::size_t kSeqBytes = sizeof(std::uint64_t);
constexpr std::size_t kAckBytes = kSeqBytes + 1;

} // namespace

DeliveryBatch::DeliveryBatch(Runtime& rt, MessageKind kind,
                             DeliveryHooks& hooks)
    : rt_{rt},
      kind_{kind},
      hooks_{hooks},
      resilient_{rt.fault_active()},
      items_(static_cast<std::size_t>(rt.num_ranks())) {}

void DeliveryBatch::add(RankId origin, RankId to, std::size_t bytes) {
  auto& row = items_[static_cast<std::size_t>(origin)];
  TLB_EXPECTS(row.size() < UINT32_MAX);
  row.push_back(Item{bytes, to});
}

void DeliveryBatch::send(RankContext& ctx) {
  auto const n = items_[static_cast<std::size_t>(ctx.rank())].size();
  for (std::uint32_t index = 0; index < n; ++index) {
    attempt(ctx, index);
  }
}

template <class Fn> void DeliveryBatch::for_each_pending(Fn const& fn) {
  for (std::size_t origin = 0; origin < items_.size(); ++origin) {
    auto& row = items_[origin];
    for (std::uint32_t index = 0; index < row.size(); ++index) {
      if (row[index].outcome == DeliveryOutcome::pending) {
        fn(static_cast<RankId>(origin), index, row[index]);
      }
    }
  }
}

void DeliveryBatch::post() {
  for_each_pending([this](RankId origin, std::uint32_t index, Item&) {
    post_attempt(origin, index, 0);
  });
}

void DeliveryBatch::post_attempt(RankId origin, std::uint32_t index,
                                 std::uint64_t delay_polls) {
  auto const trigger = [batch = this, index](RankContext& ctx) {
    batch->attempt(ctx, index);
  };
  static_assert(std::is_trivially_copyable_v<decltype(trigger)>);
  rt_.post_delayed(origin, trigger, delay_polls, 0, kind_);
}

void DeliveryBatch::attempt(RankContext& ctx, std::uint32_t index) {
  RankId const origin = ctx.rank();
  Item const& item = items_[static_cast<std::size_t>(origin)][index];
  auto const carry = [batch = this, origin, index](RankContext& dest) {
    batch->deliver(dest, origin, index);
  };
  static_assert(sizeof(carry) == 16 &&
                std::is_trivially_copyable_v<decltype(carry)>);
  ctx.send(item.to, resilient_ ? item.bytes + kSeqBytes : item.bytes, carry,
           kind_);
}

void DeliveryBatch::deliver(RankContext& ctx, RankId origin,
                            std::uint32_t index) {
  Item& item = items_[static_cast<std::size_t>(origin)][index];
  if (!resilient_) {
    if (hooks_.apply(ctx.rank(), origin, index)) {
      item.outcome = DeliveryOutcome::accepted;
      return;
    }
    ctx.send(
        origin, item.bytes,
        [batch = this, index](RankContext& back) {
          batch->resolve(back.rank(), index, false);
        },
        kind_);
    return;
  }
  // A duplicate or a retry finds the recorded outcome: replay, don't
  // re-apply.
  if (item.decided == DeliveryOutcome::pending) {
    item.decided = hooks_.apply(ctx.rank(), origin, index)
                       ? DeliveryOutcome::accepted
                       : DeliveryOutcome::rejected;
  }
  bool const accepted = item.decided == DeliveryOutcome::accepted;
  ctx.send(
      origin, kAckBytes,
      [batch = this, index, accepted](RankContext& back) {
        batch->resolve(back.rank(), index, accepted);
      },
      kind_);
}

void DeliveryBatch::resolve(RankId origin, std::uint32_t index,
                            bool accepted) {
  Item& item = items_[static_cast<std::size_t>(origin)][index];
  if (item.outcome != DeliveryOutcome::pending) {
    return; // a duplicated ack: already settled
  }
  item.outcome =
      accepted ? DeliveryOutcome::accepted : DeliveryOutcome::rejected;
  if (!accepted) {
    hooks_.give_back(origin, index);
  }
}

DeliveryBatch::Settlement DeliveryBatch::settle() {
  Settlement settled;
  settled.quiescent = rt_.run_until_quiescent();

  // Timeout = quiescence with the ack missing: that leg was provably lost.
  // Resend with exponential backoff until acked or out of attempts.
  for (bool retried = resilient_; retried;) {
    retried = false;
    for_each_pending([&](RankId origin, std::uint32_t index, Item& item) {
      if (item.attempts >= kMaxDeliveryAttempts) {
        return;
      }
      std::uint64_t const backoff = std::min(
          kBackoffBasePolls << (static_cast<unsigned>(item.attempts) - 1u),
          kMaxBackoffPolls);
      ++item.attempts;
      rt_.record_retry(kind_);
      post_attempt(origin, index, backoff);
      retried = true;
    });
    if (retried) {
      settled.quiescent = rt_.run_until_quiescent() && settled.quiescent;
    }
  }

  // Reconcile at this quiescent point. The destination's record is ground
  // truth: accepted there means only the acks were lost. Anything not
  // provably accepted goes back to its origin; an item with no record
  // (always so fault-free) is lost.
  for_each_pending([&](RankId origin, std::uint32_t index, Item& item) {
    ++settled.exhausted;
    if (item.decided == DeliveryOutcome::accepted) {
      item.outcome = DeliveryOutcome::accepted;
      return;
    }
    item.outcome = item.decided == DeliveryOutcome::rejected
                       ? DeliveryOutcome::rejected
                       : DeliveryOutcome::lost;
    hooks_.give_back(origin, index);
  });
  return settled;
}

} // namespace tlb::rt
