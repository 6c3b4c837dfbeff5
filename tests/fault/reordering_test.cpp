/// \file reordering_test.cpp
/// Delivery order is not part of the runtime's contract. The fault plane's
/// delay faults hold a message back for a seeded number of destination
/// polls, which reorders it against everything sent after it. Under a
/// hand-built profile that delays every message kind (`other` included,
/// which the canonical profiles leave clean), on both drivers: every
/// message still runs exactly once, allreduce stays correct, a counted
/// fan-out delivers every message, posts to one rank arrive permuted and
/// in the same order for one seed, and the gossip LB still produces a
/// valid plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_config.hpp"
#include "fault/fault_plane.hpp"
#include "lb/strategy/gossip_strategy.hpp"
#include "runtime/collectives.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace tlb::fault {
namespace {

/// Half of every kind's messages are held back 1..8 destination polls.
FaultConfig delay_everything() {
  FaultConfig cfg;
  cfg.name = "delay-everything";
  for (KindFaults& k : cfg.kinds) {
    k.delay = 0.5;
    k.delay_min_polls = 1;
    k.delay_max_polls = 8;
  }
  return cfg;
}

/// Parameterized by the worker count (1 = the sequential driver).
class Reordering : public ::testing::TestWithParam<int> {
protected:
  rt::RuntimeConfig config(RankId ranks, std::uint64_t seed = 77) const {
    rt::RuntimeConfig cfg;
    cfg.num_ranks = ranks;
    cfg.num_threads = GetParam();
    cfg.seed = seed;
    return cfg;
  }
};

TEST_P(Reordering, AllMessagesStillProcessed) {
  rt::Runtime rt{config(8)};
  auto const plane = install_fault_plane(rt, delay_everything());
  std::atomic<int> count{0};
  rt.post_all([&count](rt::RankContext& ctx) {
    for (int i = 0; i < 16; ++i) {
      ctx.send((ctx.rank() + i) % ctx.num_ranks(), 4,
               [&count](rt::RankContext&) { ++count; });
    }
  });
  EXPECT_TRUE(rt.run_until_quiescent());
  EXPECT_EQ(count.load(), 8 * 16);
  EXPECT_GT(rt.stats().kind_delayed[static_cast<std::size_t>(
                rt::MessageKind::other)],
            0u);
  rt.set_fault_hook(nullptr);
}

TEST_P(Reordering, AllreduceStillCorrect) {
  rt::Runtime rt{config(17)};
  auto const plane = install_fault_plane(rt, delay_everything());
  std::vector<int> contributions(17, 1);
  for (int round = 0; round < 5; ++round) {
    auto const results = rt::allreduce(rt, contributions,
                                       [](int a, int b) { return a + b; });
    for (int const r : results) {
      ASSERT_EQ(r, 17);
    }
  }
  rt.set_fault_hook(nullptr);
}

TEST_P(Reordering, FanOutRunsEveryCountedMessage) {
  rt::Runtime rt{config(8)};
  auto const plane = install_fault_plane(rt, delay_everything());
  std::atomic<int> processed{0};
  for (RankId r = 0; r < 8; ++r) {
    rt.post(r, [&processed](rt::RankContext& ctx) {
      ++processed;
      for (int i = 0; i < 3; ++i) {
        ctx.send((ctx.rank() + i) % 8, 4,
                 [&processed](rt::RankContext&) { ++processed; });
      }
    });
  }
  EXPECT_TRUE(rt.run_until_quiescent());
  EXPECT_EQ(processed.load(), 8 * 4);
  EXPECT_EQ(rt.stats().messages, static_cast<std::size_t>(processed.load()));
  rt.set_fault_hook(nullptr);
}

/// 32 numbered driver posts to rank 0 of a 4-rank runtime, in the order
/// they ran. Rank 0's visits are serialized on either driver and its poll
/// counter is the delays' only clock, so the order is a function of the
/// seed.
std::vector<int> deliveries_at_rank0(rt::RuntimeConfig cfg, bool delay) {
  cfg.batch = 64;
  rt::Runtime rt{cfg};
  auto const plane =
      install_fault_plane(rt, delay ? delay_everything() : FaultConfig{});
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    rt.post(0, [&order, i](rt::RankContext&) { order.push_back(i); });
  }
  EXPECT_TRUE(rt.run_until_quiescent());
  rt.set_fault_hook(nullptr);
  return order;
}

TEST_P(Reordering, PostsToOneRankArrivePermutedAndRepeatably) {
  auto const fifo = deliveries_at_rank0(config(4), false);
  auto const delayed = deliveries_at_rank0(config(4), true);
  ASSERT_EQ(fifo.size(), 32u);
  ASSERT_EQ(delayed.size(), 32u);
  EXPECT_TRUE(std::is_sorted(fifo.begin(), fifo.end()));
  EXPECT_FALSE(std::is_sorted(delayed.begin(), delayed.end()));
  EXPECT_TRUE(
      std::is_permutation(delayed.begin(), delayed.end(), fifo.begin()));
  EXPECT_EQ(deliveries_at_rank0(config(4), true), delayed);
}

lb::StrategyInput clustered(RankId ranks, RankId loaded,
                            std::size_t per_rank, std::uint64_t seed) {
  lb::StrategyInput input;
  input.tasks.resize(static_cast<std::size_t>(ranks));
  Rng rng{seed};
  TaskId id = 0;
  for (RankId r = 0; r < loaded; ++r) {
    for (std::size_t i = 0; i < per_rank; ++i) {
      input.tasks[static_cast<std::size_t>(r)].push_back(
          {id++, rng.uniform(0.5, 1.5)});
    }
  }
  return input;
}

TEST_P(Reordering, GossipLbStaysValid) {
  // The asynchronous protocol must tolerate arbitrary delivery order.
  auto const input = clustered(48, 3, 40, 13);
  double const before = imbalance(input.rank_loads());
  rt::Runtime rt{config(48, 321)};
  auto const plane = install_fault_plane(rt, delay_everything());
  lb::GossipStrategy strategy{lb::GossipStrategy::Flavor::tempered};
  auto params = lb::LbParams::tempered();
  params.rounds = 5;
  params.num_trials = 2;
  params.num_iterations = 3;
  auto const result = strategy.balance(rt, input, params);
  rt.set_fault_hook(nullptr);
  EXPECT_LT(result.achieved_imbalance, 0.5 * before);
  // Migration list consistency.
  std::set<TaskId> seen;
  for (auto const& m : result.migrations) {
    EXPECT_TRUE(seen.insert(m.task).second);
    EXPECT_NE(m.from, m.to);
  }
}

INSTANTIATE_TEST_SUITE_P(Drivers, Reordering, ::testing::Values(1, 4),
                         [](auto const& param_info) {
                           return std::string{param_info.param == 1
                                                  ? "Sequential"
                                                  : "Threaded"};
                         });

} // namespace
} // namespace tlb::fault
