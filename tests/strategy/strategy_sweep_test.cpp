/// Parameterized sweep over every registered strategy: shared contracts
/// each one must satisfy regardless of algorithm. TemperedLB runs twice,
/// once per transfer-loop CMF refresh mode: recompute, and build_once
/// (E12's ablation).

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>

#include "lb/strategy/lb_manager.hpp"
#include "lb/strategy/strategy.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace tlb::lb {
namespace {

struct StrategyCase {
  std::string name;
  CmfRefresh refresh = CmfRefresh::recompute;

  // Quoted like a plain string parameter; a non-default refresh mode is
  // appended.
  friend void PrintTo(StrategyCase const& c, std::ostream* os) {
    *os << '"' << c.name << '"';
    if (c.refresh != CmfRefresh::recompute) {
      *os << "/" << to_string(c.refresh);
    }
  }
};

class EveryStrategy : public ::testing::TestWithParam<StrategyCase> {
protected:
  static StrategyInput clustered_input() {
    StrategyInput input;
    input.tasks.resize(24);
    Rng rng{41};
    TaskId id = 0;
    for (RankId r = 0; r < 3; ++r) {
      for (int i = 0; i < 30; ++i) {
        input.tasks[static_cast<std::size_t>(r)].push_back(
            {id++, rng.uniform(0.2, 1.4)});
      }
    }
    return input;
  }

  static LbParams fast_params() {
    auto p = LbParams::tempered();
    p.rounds = 5;
    p.num_trials = 2;
    p.num_iterations = 3;
    p.refresh = GetParam().refresh;
    return p;
  }

  static StrategyResult balance(StrategyInput const& input,
                                int threads = 1) {
    rt::RuntimeConfig cfg;
    cfg.num_ranks = input.num_ranks();
    cfg.num_threads = threads;
    rt::Runtime rt{cfg};
    auto strategy = make_strategy(GetParam().name);
    return strategy->balance(rt, input, fast_params());
  }

  /// Every migration moves a task, with its load, from its home rank to
  /// another valid rank at most once; the projected loads are the input's
  /// with exactly those moves applied, so they conserve the total.
  static void expect_well_formed(StrategyInput const& input,
                                 StrategyResult const& result) {
    std::map<TaskId, TaskEntry> task;
    std::map<TaskId, RankId> home;
    for (std::size_t r = 0; r < input.tasks.size(); ++r) {
      for (auto const& t : input.tasks[r]) {
        task[t.id] = t;
        home[t.id] = static_cast<RankId>(r);
      }
    }
    auto projected = input.rank_loads();
    std::set<TaskId> seen;
    for (auto const& m : result.migrations) {
      ASSERT_TRUE(home.count(m.task));
      EXPECT_EQ(m.from, home[m.task]);
      EXPECT_EQ(m.load, task[m.task].load);
      EXPECT_NE(m.from, m.to);
      ASSERT_GE(m.to, 0);
      ASSERT_LT(m.to, input.num_ranks());
      EXPECT_TRUE(seen.insert(m.task).second);
      projected[static_cast<std::size_t>(m.from)] -= m.load;
      projected[static_cast<std::size_t>(m.to)] += m.load;
    }
    ASSERT_EQ(result.new_rank_loads.size(), projected.size());
    for (std::size_t r = 0; r < projected.size(); ++r) {
      EXPECT_NEAR(result.new_rank_loads[r], projected[r], 1e-9) << r;
    }
    EXPECT_NEAR(result.achieved_imbalance, imbalance(result.new_rank_loads),
                1e-9);
  }
};

TEST_P(EveryStrategy, MigrationsAreWellFormed) {
  auto const input = clustered_input();
  expect_well_formed(input, balance(input));
}

TEST_P(EveryStrategy, ReducesClusteredImbalance) {
  auto const input = clustered_input();
  EXPECT_LT(balance(input).achieved_imbalance,
            0.5 * imbalance(input.rank_loads()));
}

TEST_P(EveryStrategy, DeterministicForSameSeed) {
  // The Strategy contract: the same input, params and runtime seed give
  // the same decisions.
  auto const input = clustered_input();
  auto const first = balance(input);
  auto const second = balance(input);
  EXPECT_EQ(first.migrations, second.migrations);
  EXPECT_EQ(first.new_rank_loads, second.new_rank_loads);
}

TEST_P(EveryStrategy, WellFormedOnThreadedDriver) {
  auto const input = clustered_input();
  expect_well_formed(input, balance(input, 4));
}

TEST_P(EveryStrategy, EmptySystemIsHandled) {
  StrategyInput input;
  input.tasks.resize(8);
  EXPECT_TRUE(balance(input).migrations.empty());
}

TEST_P(EveryStrategy, WorksThroughLbManagerWithObjectStore) {
  class Chunk final : public rt::Migratable {
  public:
    [[nodiscard]] std::size_t wire_bytes() const override { return 32; }
  };

  auto const input = clustered_input();
  rt::RuntimeConfig cfg;
  cfg.num_ranks = 24;
  rt::Runtime rt{cfg};
  rt::ObjectStore store{24};
  for (std::size_t r = 0; r < input.tasks.size(); ++r) {
    for (auto const& t : input.tasks[r]) {
      store.create(static_cast<RankId>(r), t.id,
                   std::make_unique<Chunk>());
    }
  }
  LbManager manager{rt, GetParam().name, fast_params()};
  auto const report = manager.invoke(input, store);
  EXPECT_EQ(store.total_tasks(), 90u);
  // Object placement matches the strategy's decisions.
  EXPECT_EQ(report.migration_payload_bytes,
            report.cost.migration_count * 32u);
}

TEST_P(EveryStrategy, SingleRankMovesNothing) {
  StrategyInput input;
  input.tasks = {{{0, 1.0}, {1, 2.0}, {2, 3.0}}};
  auto const result = balance(input);
  EXPECT_TRUE(result.migrations.empty());
  EXPECT_EQ(result.achieved_imbalance, 0.0);
}

TEST_P(EveryStrategy, ZeroLoadTasksMoveNothing) {
  StrategyInput input;
  input.tasks.resize(8);
  input.tasks[0] = {{0, 0.0}, {1, 0.0}};
  auto const result = balance(input);
  EXPECT_TRUE(result.migrations.empty());
  EXPECT_EQ(result.achieved_imbalance, 0.0);
}

TEST_P(EveryStrategy, TaskHeavierThanAverageBoundsImbalance) {
  // One task of load 10 on rank 0 outweighs l_ave = 17.5 / 8, so no
  // placement beats I = max_task / l_ave - 1 (E7's lower bound).
  StrategyInput input;
  input.tasks.resize(8);
  input.tasks[0].push_back({0, 10.0});
  for (TaskId id = 1; id <= 7; ++id) {
    input.tasks[0].push_back({id, 1.0});
  }
  input.tasks[3].push_back({8, 0.5});
  double const l_ave = 17.5 / 8.0;
  double const bound = 10.0 / l_ave - 1.0;
  double const initial = imbalance(input.rank_loads());

  auto const result = balance(input);
  expect_well_formed(input, result);
  EXPECT_GE(result.achieved_imbalance, bound - 1e-12);
  EXPECT_LE(result.achieved_imbalance, initial);
}

TEST_P(EveryStrategy, AllLoadOnOneTask) {
  // One task of load 5 on rank 2 of 8: I = 5 / (5/8) - 1 = 7, which is
  // also E7's bound max_task / l_ave - 1, so no placement improves it.
  // Moving the lone task elsewhere is allowed; it leaves I unchanged.
  StrategyInput input;
  input.tasks.resize(8);
  input.tasks[2].push_back({0, 5.0});
  auto const result = balance(input);
  expect_well_formed(input, result);
  EXPECT_EQ(result.achieved_imbalance, 7.0);
}

TEST_P(EveryStrategy, BalancedInputMovesNothing) {
  StrategyInput input;
  input.tasks.resize(16);
  TaskId id = 0;
  for (auto& tasks : input.tasks) {
    tasks.push_back({id++, 1.0});
  }
  auto const result = balance(input);
  EXPECT_TRUE(result.migrations.empty());
  EXPECT_EQ(result.achieved_imbalance, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, EveryStrategy,
    ::testing::Values(StrategyCase{"tempered"},
                      StrategyCase{"tempered", CmfRefresh::build_once},
                      StrategyCase{"grapevine"}, StrategyCase{"greedy"},
                      StrategyCase{"hier"}));

TEST(Factory, CreatesAllRegisteredStrategies) {
  for (auto const name : strategy_names()) {
    auto const strategy = make_strategy(name);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), name);
  }
}

TEST(Factory, UnknownNameThrows) {
  // Balancers outside the paper's four are not registered either.
  for (auto const name : {"definitely-not-a-strategy", "tempered_fast",
                          "diffusion", "stealing", "rotate", "random"}) {
    EXPECT_THROW((void)make_strategy(name), std::invalid_argument) << name;
  }
}

} // namespace
} // namespace tlb::lb
