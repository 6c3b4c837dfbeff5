/// \file lpt_test.cpp
/// The LPT helper behind GreedyLB, HierLB's within-group placement and the
/// greedy quality floor (the "GreedyRef" suite: the greedy reference).

#include "lb/lpt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lb/strategy/greedy.hpp"
#include "lb/strategy/strategy.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace tlb::lb {
namespace {

struct Task {
  TaskEntry entry;
  RankId home = 0;
};

/// Bin loads of the LPT placement of `tasks` over `bins` bins, plus the
/// tasks that changed rank (home != bin).
struct Placement {
  std::vector<LoadType> loads;
  std::vector<TaskId> moved;
};

Placement place(std::vector<Task> tasks, RankId bins) {
  Placement out;
  out.loads.assign(static_cast<std::size_t>(bins), 0.0);
  lpt_schedule(tasks, bins, [&](Task const& t, RankId bin) {
    out.loads[static_cast<std::size_t>(bin)] += t.entry.load;
    if (bin != t.home) {
      out.moved.push_back(t.entry.id);
    }
  });
  return out;
}

TEST(GreedyRef, PerfectlyDivisibleReachesZeroImbalance) {
  StrategyInput input;
  input.tasks.resize(4);
  for (int i = 0; i < 8; ++i) {
    input.tasks[0].push_back({static_cast<TaskId>(i), 1.0});
  }
  EXPECT_DOUBLE_EQ(imbalance(input.rank_loads()), 3.0);
  EXPECT_NEAR(greedy_imbalance(input), 0.0, 1e-12);
}

TEST(GreedyRef, LptFourThirdsBound) {
  // LPT makespan <= (4/3 - 1/(3m)) * OPT. With total load W on m ranks,
  // OPT >= max(W/m, max task). Verify the bound on random instances.
  Rng rng{55};
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Task> tasks;
    double total = 0.0;
    double max_task = 0.0;
    auto const n = 20 + rng.index(60);
    for (std::size_t i = 0; i < n; ++i) {
      double const load = rng.uniform(0.1, 3.0);
      tasks.push_back({{static_cast<TaskId>(i), load},
                       static_cast<RankId>(rng.uniform_below(8))});
      total += load;
      max_task = std::max(max_task, load);
    }
    auto const loads = place(tasks, 8).loads;
    double const opt_lower = std::max(total / 8.0, max_task);
    double const bound = (4.0 / 3.0 - 1.0 / 24.0) * opt_lower;
    EXPECT_LE(*std::max_element(loads.begin(), loads.end()), bound + 1e-9);
  }
}

TEST(GreedyRef, NoMigrationForAlreadyOptimalSingleRank) {
  auto const placed = place({{{0, 1.0}, 0}, {{1, 2.0}, 0}}, 1);
  EXPECT_TRUE(placed.moved.empty());
  EXPECT_DOUBLE_EQ(placed.loads[0], 3.0);
}

TEST(GreedyRef, MigrationsOnlyListMovedTasks) {
  // LPT puts task 0 (load 5) on bin 0 and task 1 on bin 1, which is where
  // they already are: nothing moves, and the heavier bin carries 5.
  auto const placed = place({{{0, 5.0}, 0}, {{1, 1.0}, 1}}, 2);
  EXPECT_TRUE(placed.moved.empty());
  EXPECT_DOUBLE_EQ(*std::max_element(placed.loads.begin(), placed.loads.end()),
                   5.0);
}

TEST(GreedyRef, ImbalanceHelperMatchesManualApplication) {
  // The floor greedy_imbalance computes is what GreedyLB's protocol
  // reaches on the same input.
  RankId const p = 16;
  StrategyInput input;
  input.tasks.resize(static_cast<std::size_t>(p));
  Rng rng{77};
  for (TaskId t = 0; t < 300; ++t) {
    input.tasks[static_cast<std::size_t>(t % 2)].push_back(
        {t, rng.uniform(0.0, 2.0)});
  }
  rt::RuntimeConfig cfg;
  cfg.num_ranks = p;
  rt::Runtime rt{cfg};
  GreedyStrategy greedy;
  auto const result = greedy.balance(rt, input, LbParams::tempered());
  EXPECT_NEAR(greedy_imbalance(input), result.achieved_imbalance, 1e-12);
}

TEST(GreedyRef, DeterministicTieBreaking) {
  // All loads equal: tasks go by ascending id, each to the lowest of the
  // least-loaded bins, so task i lands on bin i mod 3.
  std::vector<Task> tasks;
  for (int i = 8; i >= 0; --i) {
    tasks.push_back({{static_cast<TaskId>(i), 2.0}, 0});
  }
  std::vector<std::pair<TaskId, RankId>> order;
  lpt_schedule(tasks, 3, [&](Task const& t, RankId bin) {
    order.emplace_back(t.entry.id, bin);
  });
  ASSERT_EQ(order.size(), 9u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].first, static_cast<TaskId>(i));
    EXPECT_EQ(order[i].second, static_cast<RankId>(i % 3));
  }
}

} // namespace
} // namespace tlb::lb
