/// \file delivery_test.cpp
/// The delivery batch on its own: every item ends accepted, rejected (and
/// returned to its origin) or lost, each apply and each return runs
/// exactly once per item, and settle() reports the items whose retry
/// budget ran out. Runs fault-free and under hooks that duplicate every
/// message, drop every message, drop only the replies, or delay every
/// message of every kind, on the sequential and a 4-worker driver, with
/// items launched from their origin's handler and from the driver.

#include "runtime/delivery.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "runtime/fault_hook.hpp"

namespace tlb::rt {
namespace {

/// Origins 0..3 each send kPerOrigin items to ranks 4..7.
constexpr RankId kRanks = 8;
constexpr RankId kOrigins = 4;
constexpr std::uint32_t kPerOrigin = 5;
constexpr std::size_t kItems = kOrigins * kPerOrigin;
/// Odd-indexed items, which the destinations reject.
constexpr std::size_t kRejected = kOrigins * (kPerOrigin / 2);

RankId destination(RankId origin, std::uint32_t index) {
  return kOrigins + (origin + static_cast<RankId>(index)) % kOrigins;
}

/// Destinations accept even-indexed items and reject odd ones; every call
/// is counted per item.
class CountingHooks final : public DeliveryHooks {
public:
  bool apply(RankId at, RankId origin, std::uint32_t index) override {
    ++applied_[slot(origin, index)];
    if (at != destination(origin, index)) {
      ++misrouted_;
    }
    return index % 2 == 0;
  }
  void give_back(RankId origin, std::uint32_t index) override {
    ++returned_[slot(origin, index)];
  }

  [[nodiscard]] int applied(RankId origin, std::uint32_t index) const {
    return applied_[slot(origin, index)].load();
  }
  [[nodiscard]] int returned(RankId origin, std::uint32_t index) const {
    return returned_[slot(origin, index)].load();
  }
  [[nodiscard]] int misrouted() const { return misrouted_.load(); }

private:
  static std::size_t slot(RankId origin, std::uint32_t index) {
    return static_cast<std::size_t>(origin) * kPerOrigin + index;
  }
  std::vector<std::atomic<int>> applied_ =
      std::vector<std::atomic<int>>(kItems);
  std::vector<std::atomic<int>> returned_ =
      std::vector<std::atomic<int>>(kItems);
  std::atomic<int> misrouted_{0};
};

enum class Net { duplicate_all, drop_all, drop_replies, delay_all };

/// Applies one fault to the batch's traffic (MessageKind::transfer) and
/// leaves every other message alone, except that delay_all holds back
/// every message of every kind, for 1 to 4 polls of its destination.
/// Replies are the messages bound for an origin rank.
class TransferFault final : public FaultHook {
public:
  explicit TransferFault(Net net) : net_{net} {}
  [[nodiscard]] FaultDecision on_send(RankId from, RankId to,
                                      MessageKind kind) override {
    if (net_ == Net::delay_all) {
      std::uint32_t const polls =
          from == invalid_rank
              ? 3u
              : static_cast<std::uint32_t>(1 + (from + 2 * to) % 4);
      return {FaultAction::delay, polls};
    }
    if (kind != MessageKind::transfer) {
      return {};
    }
    switch (net_) {
    case Net::duplicate_all:
      return {FaultAction::duplicate, 0};
    case Net::drop_all:
      return {FaultAction::drop, 0};
    case Net::drop_replies:
      return {to < kOrigins ? FaultAction::drop : FaultAction::deliver, 0};
    case Net::delay_all:
      break;
    }
    return {};
  }
  [[nodiscard]] DrainGate on_drain(RankId, std::uint64_t) override {
    return DrainGate::open;
  }

private:
  Net net_;
};

struct Case {
  int threads = 1;
  bool driver_post = false;
};

struct Observed {
  CountingHooks hooks;
  std::vector<DeliveryOutcome> outcomes;
  DeliveryBatch::Settlement settled;
  NetworkStats stats;
};

/// Launch every item, settle, and record what happened.
void run_batch(Case c, FaultHook* fault, Observed& out) {
  RuntimeConfig cfg;
  cfg.num_ranks = kRanks;
  cfg.num_threads = c.threads;
  cfg.seed = 0xde11;
  Runtime rt{cfg};
  rt.set_fault_hook(fault);
  DeliveryBatch batch{rt, MessageKind::transfer, out.hooks};
  if (c.driver_post) {
    for (RankId origin = 0; origin < kOrigins; ++origin) {
      for (std::uint32_t i = 0; i < kPerOrigin; ++i) {
        batch.add(origin, destination(origin, i), 16);
      }
    }
    batch.post();
  } else {
    rt.post_all([&batch](RankContext& ctx) {
      if (ctx.rank() >= kOrigins) {
        return;
      }
      for (std::uint32_t i = 0; i < kPerOrigin; ++i) {
        batch.add(ctx.rank(), destination(ctx.rank(), i), 16);
      }
      batch.send(ctx);
    });
  }
  out.settled = batch.settle();
  for (RankId origin = 0; origin < kOrigins; ++origin) {
    for (std::uint32_t i = 0; i < kPerOrigin; ++i) {
      out.outcomes.push_back(batch.outcome(origin, i));
    }
  }
  out.stats = rt.stats();
  rt.set_fault_hook(nullptr);
}

std::size_t transfer(std::array<std::size_t, num_message_kinds> const& a) {
  return a[static_cast<std::size_t>(MessageKind::transfer)];
}

class DeliveryBatchTest : public ::testing::TestWithParam<Case> {};

/// Even items end accepted and odd ones rejected and returned: each
/// apply and each return ran exactly once.
void expect_each_item_once(Observed const& run) {
  EXPECT_EQ(run.hooks.misrouted(), 0);
  for (RankId origin = 0; origin < kOrigins; ++origin) {
    for (std::uint32_t i = 0; i < kPerOrigin; ++i) {
      SCOPED_TRACE("item " + std::to_string(origin) + "/" +
                   std::to_string(i));
      bool const even = i % 2 == 0;
      EXPECT_EQ(run.hooks.applied(origin, i), 1);
      EXPECT_EQ(run.hooks.returned(origin, i), even ? 0 : 1);
      EXPECT_EQ(run.outcomes[static_cast<std::size_t>(origin) * kPerOrigin +
                             i],
                even ? DeliveryOutcome::accepted : DeliveryOutcome::rejected);
    }
  }
}

TEST_P(DeliveryBatchTest, FaultFreeAcceptsOrReturnsEachItemOnce) {
  Observed run;
  run_batch(GetParam(), nullptr, run);
  expect_each_item_once(run);
  EXPECT_TRUE(run.settled.quiescent);
  EXPECT_EQ(run.settled.exhausted, 0u);
  // One message per item and one bounce per rejection (plus, when the
  // driver launches, its one post per item); no acks, no retries.
  EXPECT_EQ(transfer(run.stats.kind_messages),
            kItems + kRejected + (GetParam().driver_post ? kItems : 0));
  EXPECT_EQ(transfer(run.stats.kind_retried), 0u);
}

TEST_P(DeliveryBatchTest, DuplicatedMessagesApplyAndReturnOnce) {
  TransferFault duplicate{Net::duplicate_all};
  Observed run;
  run_batch(GetParam(), &duplicate, run);
  expect_each_item_once(run);
  EXPECT_TRUE(run.settled.quiescent);
  EXPECT_EQ(run.settled.exhausted, 0u);
  EXPECT_EQ(transfer(run.stats.kind_retried), 0u);
  // Each item arrived twice and was acked twice (the second time as a
  // replay), and every ack arrived twice too.
  EXPECT_EQ(transfer(run.stats.kind_duplicated), 3 * kItems);
}

TEST_P(DeliveryBatchTest, DroppedMessagesAreLostAndReturnedOnce) {
  TransferFault drop{Net::drop_all};
  Observed run;
  run_batch(GetParam(), &drop, run);
  EXPECT_TRUE(run.settled.quiescent);
  EXPECT_EQ(run.settled.exhausted, kItems);
  for (RankId origin = 0; origin < kOrigins; ++origin) {
    for (std::uint32_t i = 0; i < kPerOrigin; ++i) {
      EXPECT_EQ(run.hooks.applied(origin, i), 0);
      EXPECT_EQ(run.hooks.returned(origin, i), 1);
    }
  }
  for (DeliveryOutcome const outcome : run.outcomes) {
    EXPECT_EQ(outcome, DeliveryOutcome::lost);
  }
  EXPECT_EQ(transfer(run.stats.kind_retried),
            kItems * static_cast<std::size_t>(kMaxDeliveryAttempts - 1));
}

TEST_P(DeliveryBatchTest, LostRepliesSettleFromTheDestinationRecord) {
  // Every attempt lands but every ack is dropped: the budget runs out on
  // each item, retries replay the recorded outcome instead of applying
  // again, and settle() reads the outcome from the destination's record.
  TransferFault drop_replies{Net::drop_replies};
  Observed run;
  run_batch(GetParam(), &drop_replies, run);
  expect_each_item_once(run);
  EXPECT_TRUE(run.settled.quiescent);
  EXPECT_EQ(run.settled.exhausted, kItems);
  EXPECT_EQ(transfer(run.stats.kind_retried),
            kItems * static_cast<std::size_t>(kMaxDeliveryAttempts - 1));
}

TEST_P(DeliveryBatchTest, DelayedMessagesReorderButSettleOnce) {
  // Delays reorder items, acks and launches against each other but lose
  // nothing: quiescence waits for every parked message, so no ack is
  // missing at the first quiescent point and nothing is resent.
  TransferFault delay{Net::delay_all};
  Observed run;
  run_batch(GetParam(), &delay, run);
  expect_each_item_once(run);
  EXPECT_TRUE(run.settled.quiescent);
  EXPECT_EQ(run.settled.exhausted, 0u);
  EXPECT_EQ(transfer(run.stats.kind_retried), 0u);
  EXPECT_EQ(transfer(run.stats.kind_dropped), 0u);
  // Every item and every ack was held back; the driver's launch posts are
  // local scheduling, exempt from faults.
  EXPECT_EQ(transfer(run.stats.kind_delayed), 2 * kItems);
}

std::string case_name(::testing::TestParamInfo<Case> const& info) {
  return std::string{info.param.threads == 1 ? "Sequential" : "Threaded"} +
         (info.param.driver_post ? "DriverPost" : "HandlerSend");
}

INSTANTIATE_TEST_SUITE_P(Drivers, DeliveryBatchTest,
                         ::testing::Values(Case{1, false}, Case{1, true},
                                           Case{4, false}, Case{4, true}),
                         case_name);

} // namespace
} // namespace tlb::rt
