#include "runtime/network_stats.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

#include "obs/registry.hpp"
#include "runtime/fault_hook.hpp"
#include "runtime/runtime.hpp"

namespace tlb::rt {
namespace {

TEST(NetworkStats, PerCategoryCountersSumToAggregate) {
  NetworkStats stats;
  stats.record_send(false, 100, MessageKind::gossip);
  stats.record_send(false, 50, MessageKind::gossip);
  stats.record_send(true, 10, MessageKind::transfer);
  stats.record_send(false, 7, MessageKind::migration);
  stats.record_send(false, 1, MessageKind::termination);
  stats.record_send(false, 3); // untagged -> other

  NetworkStats const& snap = stats;
  EXPECT_EQ(snap.messages, 6u);
  EXPECT_EQ(snap.bytes, 171u);
  EXPECT_EQ(snap.local_messages, 1u);
  EXPECT_EQ(snap.kind_messages[static_cast<std::size_t>(
                MessageKind::gossip)],
            2u);
  EXPECT_EQ(
      snap.kind_bytes[static_cast<std::size_t>(MessageKind::gossip)],
      150u);
  EXPECT_EQ(snap.kind_messages[static_cast<std::size_t>(
                MessageKind::other)],
            1u);

  std::size_t kind_total_messages = 0;
  std::size_t kind_total_bytes = 0;
  for (std::size_t k = 0; k < num_message_kinds; ++k) {
    kind_total_messages += snap.kind_messages[k];
    kind_total_bytes += snap.kind_bytes[k];
  }
  EXPECT_EQ(kind_total_messages, snap.messages);
  EXPECT_EQ(kind_total_bytes, snap.bytes);
}

TEST(NetworkStats, MailboxDepthIsHighWatermark) {
  NetworkStats stats;
  stats.record_mailbox_depth(3);
  stats.record_mailbox_depth(9);
  stats.record_mailbox_depth(5);
  EXPECT_EQ(stats.max_mailbox_depth, 9u);
  stats = NetworkStats{};
  EXPECT_EQ(stats.max_mailbox_depth, 0u);
}

/// A block whose every field holds a distinct value above `base`.
NetworkStats distinct_block(std::size_t base) {
  NetworkStats s;
  s.messages = base + 1;
  s.bytes = base + 2;
  s.local_messages = base + 3;
  for (std::size_t k = 0; k < num_message_kinds; ++k) {
    s.kind_messages[k] = base + 10 + k;
    s.kind_bytes[k] = base + 20 + k;
    s.kind_dropped[k] = base + 30 + k;
    s.kind_delayed[k] = base + 40 + k;
    s.kind_duplicated[k] = base + 50 + k;
    s.kind_retried[k] = base + 60 + k;
  }
  s.max_mailbox_depth = base + 7;
  s.coalesced_flushes = base + 8;
  s.coalesced_messages = base + 9;
  return s;
}

TEST(NetworkStats, FoldAddsEveryFieldAndKeepsTheLargerDepth) {
  NetworkStats folded = distinct_block(100);
  folded.fold(distinct_block(1000));
  EXPECT_EQ(folded.messages, 101u + 1001u);
  EXPECT_EQ(folded.bytes, 102u + 1002u);
  EXPECT_EQ(folded.local_messages, 103u + 1003u);
  for (std::size_t k = 0; k < num_message_kinds; ++k) {
    SCOPED_TRACE("kind " + std::to_string(k));
    EXPECT_EQ(folded.kind_messages[k], 1120u + 2 * k);
    EXPECT_EQ(folded.kind_bytes[k], 1140u + 2 * k);
    EXPECT_EQ(folded.kind_dropped[k], 1160u + 2 * k);
    EXPECT_EQ(folded.kind_delayed[k], 1180u + 2 * k);
    EXPECT_EQ(folded.kind_duplicated[k], 1200u + 2 * k);
    EXPECT_EQ(folded.kind_retried[k], 1220u + 2 * k);
  }
  EXPECT_EQ(folded.max_mailbox_depth, 1007u);
  EXPECT_EQ(folded.coalesced_flushes, 108u + 1008u);
  EXPECT_EQ(folded.coalesced_messages, 109u + 1009u);

  // The deeper watermark wins whichever side it is on.
  NetworkStats deeper = distinct_block(1000);
  deeper.fold(distinct_block(100));
  EXPECT_EQ(deeper.max_mailbox_depth, 1007u);
}

TEST(NetworkStats, MessageKindNamesAreStable) {
  EXPECT_STREQ(message_kind_name(MessageKind::other), "other");
  EXPECT_STREQ(message_kind_name(MessageKind::gossip), "gossip");
  EXPECT_STREQ(message_kind_name(MessageKind::transfer), "transfer");
  EXPECT_STREQ(message_kind_name(MessageKind::migration), "migration");
  EXPECT_STREQ(message_kind_name(MessageKind::termination),
               "termination");
}

TEST(Runtime, TaggedSendsLandInTheirCategory) {
  RuntimeConfig config;
  config.num_ranks = 4;
  Runtime runtime{config};
  runtime.post(
      1, [](RankContext& ctx) { ctx.send(2, 64, [](RankContext&) {},
                                         MessageKind::gossip); },
      16, MessageKind::transfer);
  runtime.run_until_quiescent();

  auto const snap = runtime.stats();
  EXPECT_EQ(snap.messages, 2u);
  EXPECT_EQ(snap.kind_messages[static_cast<std::size_t>(
                MessageKind::transfer)],
            1u);
  EXPECT_EQ(snap.kind_messages[static_cast<std::size_t>(
                MessageKind::gossip)],
            1u);
  EXPECT_EQ(
      snap.kind_bytes[static_cast<std::size_t>(MessageKind::gossip)],
      64u);
  EXPECT_GE(snap.max_mailbox_depth, 1u);
}

TEST(NetworkStats, FaultCountersArePerKindAndResettable) {
  NetworkStats stats;
  stats.record_drop(MessageKind::gossip);
  stats.record_drop(MessageKind::gossip);
  stats.record_delay(MessageKind::transfer);
  stats.record_duplicate(MessageKind::migration);
  stats.record_retry(MessageKind::migration);
  stats.record_retry(MessageKind::transfer);

  NetworkStats snap = stats;
  EXPECT_EQ(snap.kind_dropped[static_cast<std::size_t>(MessageKind::gossip)],
            2u);
  EXPECT_EQ(
      snap.kind_delayed[static_cast<std::size_t>(MessageKind::transfer)],
      1u);
  EXPECT_EQ(snap.kind_duplicated[static_cast<std::size_t>(
                MessageKind::migration)],
            1u);
  EXPECT_EQ(
      snap.kind_retried[static_cast<std::size_t>(MessageKind::migration)],
      1u);
  EXPECT_EQ(
      snap.kind_retried[static_cast<std::size_t>(MessageKind::transfer)],
      1u);
  EXPECT_EQ(snap.kind_dropped[static_cast<std::size_t>(MessageKind::other)],
            0u);

  stats = NetworkStats{};
  snap = stats;
  for (std::size_t k = 0; k < num_message_kinds; ++k) {
    EXPECT_EQ(snap.kind_dropped[k], 0u);
    EXPECT_EQ(snap.kind_delayed[k], 0u);
    EXPECT_EQ(snap.kind_duplicated[k], 0u);
    EXPECT_EQ(snap.kind_retried[k], 0u);
  }
}

/// Of every four send decisions, in whatever order the threads take them:
/// one drop, one duplicate, one delay of two destination polls, and one
/// plain delivery.
class EveryFourthFault final : public FaultHook {
public:
  [[nodiscard]] FaultDecision on_send(RankId, RankId, MessageKind) override {
    switch (next_.fetch_add(1, std::memory_order_relaxed) % 4) {
    case 0:
      return {FaultAction::drop, 0};
    case 1:
      return {FaultAction::duplicate, 0};
    case 2:
      return {FaultAction::delay, 2};
    default:
      return {};
    }
  }
  [[nodiscard]] DrainGate on_drain(RankId, std::uint64_t) override {
    return DrainGate::open;
  }

private:
  std::atomic<std::uint64_t> next_{0};
};

std::size_t total(std::array<std::size_t, num_message_kinds> const& a) {
  std::size_t sum = 0;
  for (std::size_t const v : a) {
    sum += v;
  }
  return sum;
}

TEST(Runtime, ThreadedRunFoldsFaultCountersThatBalance) {
  // Workers record their handlers' sends and the fault decisions on them
  // into their own blocks; the runtime must fold every block at run end,
  // or the handler count below cannot balance.
  RuntimeConfig config;
  config.num_ranks = 16;
  config.num_threads = 4;
  Runtime runtime{config};
  EveryFourthFault hook;
  runtime.set_fault_hook(&hook);
  std::atomic<std::size_t> handlers{0};
  runtime.post_all([&handlers](RankContext& ctx) {
    ++handlers;
    for (int i = 0; i < 8; ++i) {
      ctx.send((ctx.rank() + i) % ctx.num_ranks(), 4,
               [&handlers](RankContext&) { ++handlers; });
    }
  });
  EXPECT_TRUE(runtime.run_until_quiescent());
  runtime.set_fault_hook(nullptr);

  auto const stats = runtime.stats();
  auto const dropped = total(stats.kind_dropped);
  auto const duplicated = total(stats.kind_duplicated);
  // 16 driver posts decided on the driver thread, the rest on workers.
  EXPECT_GT(dropped, 4u);
  EXPECT_GT(duplicated, 4u);
  EXPECT_GT(total(stats.kind_delayed), 4u);
  EXPECT_GT(stats.messages, 16u);
  EXPECT_EQ(handlers.load(), stats.messages - dropped + duplicated);
}

TEST(Runtime, PostDelayedDeliversAndCountsAsInFlight) {
  RuntimeConfig config;
  config.num_ranks = 2;
  Runtime runtime{config};
  int order = 0;
  int delayed_order = -1;
  int immediate_order = -1;
  runtime.post_delayed(
      1, [&](RankContext&) { delayed_order = order++; },
      /*delay_polls=*/8);
  runtime.post(1, [&](RankContext&) { immediate_order = order++; });
  EXPECT_TRUE(runtime.run_until_quiescent());
  // Quiescence waited for the parked handler, and the immediate message
  // overtook it.
  EXPECT_EQ(immediate_order, 0);
  EXPECT_EQ(delayed_order, 1);
}

TEST(Runtime, PublishMetricsIncludesFaultCounters) {
  RuntimeConfig config;
  config.num_ranks = 2;
  Runtime runtime{config};
  runtime.record_retry(MessageKind::migration);
  obs::Registry registry;
  runtime.publish_metrics(registry);
  bool saw_retried = false;
  for (auto const& s : registry.snapshot()) {
    if (s.name == "net.retried_by_category" && !s.labels.empty() &&
        s.labels[0].value == "migration") {
      saw_retried = true;
      EXPECT_EQ(s.counter_value, 1u);
    }
  }
  EXPECT_TRUE(saw_retried);
}

TEST(Runtime, PublishMetricsFoldsIntoRegistry) {
  RuntimeConfig config;
  config.num_ranks = 2;
  Runtime runtime{config};
  runtime.post(
      0, [](RankContext& ctx) { ctx.send(1, 32, [](RankContext&) {},
                                         MessageKind::migration); },
      8, MessageKind::gossip);
  runtime.run_until_quiescent();

  obs::Registry registry;
  runtime.publish_metrics(registry);
  auto const samples = registry.snapshot();
  bool saw_migration_category = false;
  bool saw_depth_gauge = false;
  for (auto const& s : samples) {
    if (s.name == "net.messages_by_category" && !s.labels.empty() &&
        s.labels[0].value == "migration") {
      saw_migration_category = true;
      EXPECT_EQ(s.counter_value, 1u);
    }
    if (s.name == "net.max_mailbox_depth") {
      saw_depth_gauge = true;
      EXPECT_GE(s.gauge_value, 1);
    }
  }
  EXPECT_TRUE(saw_migration_category);
  EXPECT_TRUE(saw_depth_gauge);
}

} // namespace
} // namespace tlb::rt
