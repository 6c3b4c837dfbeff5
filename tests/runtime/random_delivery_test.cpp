#include <gtest/gtest.h>

#include <atomic>

#include "runtime/collectives.hpp"
#include "runtime/runtime.hpp"

namespace tlb::rt {
namespace {

RuntimeConfig reorder_config(RankId ranks, std::uint64_t seed = 77,
                             int threads = 1) {
  RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.num_threads = threads;
  cfg.seed = seed;
  cfg.random_delivery = true;
  return cfg;
}

TEST(RandomDelivery, AllMessagesStillProcessed) {
  Runtime rt{reorder_config(8)};
  std::atomic<int> count{0};
  rt.post_all([&count](RankContext& ctx) {
    for (int i = 0; i < 16; ++i) {
      ctx.send((ctx.rank() + i) % ctx.num_ranks(), 4,
               [&count](RankContext&) { ++count; });
    }
  });
  rt.run_until_quiescent();
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(RandomDelivery, ActuallyReorders) {
  // Queue numbered messages at one rank and observe a non-FIFO order.
  auto deliveries_for = [](bool reorder) {
    RuntimeConfig cfg;
    cfg.num_ranks = 1;
    cfg.random_delivery = reorder;
    cfg.batch = 64;
    Runtime rt{cfg};
    std::vector<int> order;
    for (int i = 0; i < 32; ++i) {
      rt.post(0, [&order, i](RankContext&) { order.push_back(i); });
    }
    rt.run_until_quiescent();
    return order;
  };
  auto const fifo = deliveries_for(false);
  auto const random = deliveries_for(true);
  ASSERT_EQ(fifo.size(), 32u);
  ASSERT_EQ(random.size(), 32u);
  EXPECT_TRUE(std::is_sorted(fifo.begin(), fifo.end()));
  EXPECT_FALSE(std::is_sorted(random.begin(), random.end()));
  EXPECT_TRUE(std::is_permutation(random.begin(), random.end(),
                                  fifo.begin()));
}

TEST(RandomDelivery, DeterministicGivenSeed) {
  auto run_once = [] {
    Runtime rt{reorder_config(1, 42)};
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      rt.post(0, [&order, i](RankContext&) { order.push_back(i); });
    }
    rt.run_until_quiescent();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(RandomDelivery, AllreduceStillCorrect) {
  Runtime rt{reorder_config(17)};
  std::vector<int> contributions(17, 1);
  for (int round = 0; round < 5; ++round) {
    auto const results =
        allreduce(rt, contributions, [](int a, int b) { return a + b; });
    for (int const r : results) {
      ASSERT_EQ(r, 17);
    }
  }
}

TEST(RandomDelivery, FanOutRunsEveryCountedMessage) {
  Runtime rt{reorder_config(8)};
  std::atomic<int> processed{0};
  for (RankId r = 0; r < 8; ++r) {
    rt.post(r, [&processed](RankContext& ctx) {
      ++processed;
      for (int i = 0; i < 3; ++i) {
        ctx.send((ctx.rank() + i) % 8, 4,
                 [&processed](RankContext&) { ++processed; });
      }
    });
  }
  rt.run_until_quiescent();
  EXPECT_EQ(processed.load(), 8 * 4);
  EXPECT_EQ(rt.stats().messages, static_cast<std::size_t>(processed.load()));
}

TEST(RandomDelivery, ThreadedComposes) {
  Runtime rt{reorder_config(16, 5, 4)};
  std::atomic<int> count{0};
  rt.post_all([&count](RankContext& ctx) {
    for (int i = 0; i < 8; ++i) {
      auto const dest = static_cast<RankId>(
          ctx.rng().uniform_below(16));
      ctx.send(dest, 4, [&count](RankContext&) { ++count; });
    }
  });
  rt.run_until_quiescent();
  EXPECT_EQ(count.load(), 16 * 8);
}

} // namespace
} // namespace tlb::rt
