/// \file degenerate_loads_test.cpp
/// Degenerate load distributions through GossipStrategy::balance, both
/// flavors (tempered, grapevine), on the sequential driver and on a
/// 4-worker driver: one rank, all load on one task, zero-load ranks, a
/// task heavier than the average rank load, all ranks equal, and no load
/// at all. Every run must conserve tasks and load, emit well-formed
/// migrations and never raise the imbalance. The invariant auditor runs
/// in count mode and must stay silent (it is compiled in only by
/// -DTLB_AUDIT=ON; elsewhere the count is trivially zero).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lb/strategy/gossip_strategy.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace tlb::lb {
namespace {

struct Degenerate {
  std::string name;
  StrategyInput input;
};

/// Rank `r` gets `loads`, as tasks numbered on from `next_id`.
void place(StrategyInput& input, RankId r, std::vector<LoadType> const& loads,
           TaskId& next_id) {
  for (LoadType const load : loads) {
    input.tasks[static_cast<std::size_t>(r)].push_back({next_id++, load});
  }
}

std::vector<Degenerate> const& degenerate_cases() {
  static std::vector<Degenerate> const cases = [] {
    std::vector<Degenerate> out;
    TaskId id = 0;
    {
      Degenerate c{"single_rank", {}};
      c.input.tasks.resize(1);
      place(c.input, 0, {1.0, 2.0, 3.0}, id);
      out.push_back(std::move(c));
    }
    {
      // I = 7 is E7's bound max_task / l_ave - 1: nothing can improve it.
      Degenerate c{"all_load_on_one_task", {}};
      c.input.tasks.resize(8);
      place(c.input, 2, {5.0}, id);
      out.push_back(std::move(c));
    }
    {
      // Two loaded ranks, four ranks whose tasks weigh nothing, two empty.
      Degenerate c{"zero_load_ranks", {}};
      c.input.tasks.resize(8);
      place(c.input, 0, {1.0, 0.5, 0.25, 2.0, 0.75}, id);
      place(c.input, 1, {1.5, 1.5, 0.5}, id);
      for (RankId r = 2; r < 6; ++r) {
        place(c.input, r, {0.0, 0.0}, id);
      }
      out.push_back(std::move(c));
    }
    {
      // l_ave = 17.5 / 8, below the 10.0 task.
      Degenerate c{"task_heavier_than_average", {}};
      c.input.tasks.resize(8);
      place(c.input, 0, {10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, id);
      place(c.input, 3, {0.5}, id);
      out.push_back(std::move(c));
    }
    {
      Degenerate c{"all_ranks_equal", {}};
      c.input.tasks.resize(16);
      for (RankId r = 0; r < 16; ++r) {
        place(c.input, r, {0.25, 0.75}, id);
      }
      out.push_back(std::move(c));
    }
    {
      Degenerate c{"no_load_at_all", {}};
      c.input.tasks.resize(8);
      place(c.input, 0, {0.0, 0.0, 0.0}, id);
      place(c.input, 5, {0.0}, id);
      out.push_back(std::move(c));
    }
    return out;
  }();
  return cases;
}

struct SweepCase {
  GossipStrategy::Flavor flavor = GossipStrategy::Flavor::tempered;
  int threads = 1;
  std::size_t input = 0; ///< index into degenerate_cases()

  [[nodiscard]] std::string name() const {
    return std::string{flavor == GossipStrategy::Flavor::tempered
                           ? "tempered"
                           : "grapevine"} +
           "_threads" + std::to_string(threads) + "_" +
           degenerate_cases()[input].name;
  }
  friend void PrintTo(SweepCase const& c, std::ostream* os) {
    *os << c.name();
  }
};

std::vector<SweepCase> sweep() {
  std::vector<SweepCase> out;
  for (auto const flavor : {GossipStrategy::Flavor::tempered,
                            GossipStrategy::Flavor::grapevine}) {
    for (int const threads : {1, 4}) {
      for (std::size_t i = 0; i < degenerate_cases().size(); ++i) {
        out.push_back(SweepCase{flavor, threads, i});
      }
    }
  }
  return out;
}

class DegenerateLoads : public ::testing::TestWithParam<SweepCase> {
protected:
  void SetUp() override {
    audit::set_mode(audit::Mode::count);
    audit::reset_violations();
  }
  void TearDown() override {
    audit::reset_violations();
    audit::set_mode(audit::Mode::abort_process);
  }

  static StrategyResult balance(StrategyInput const& input) {
    rt::RuntimeConfig cfg;
    cfg.num_ranks = input.num_ranks();
    cfg.num_threads = GetParam().threads;
    rt::Runtime rt{cfg};
    auto params = LbParams::tempered();
    params.rounds = 5;
    params.num_trials = 2;
    params.num_iterations = 3;
    GossipStrategy strategy{GetParam().flavor};
    return strategy.balance(rt, input, params);
  }
};

TEST_P(DegenerateLoads, ConserveTasksAndLoadWithWellFormedMigrations) {
  StrategyInput const& input = degenerate_cases()[GetParam().input].input;
  auto const result = balance(input);

  std::map<TaskId, TaskEntry> task;
  std::map<TaskId, RankId> owner;
  double total = 0.0;
  for (std::size_t r = 0; r < input.tasks.size(); ++r) {
    for (TaskEntry const& t : input.tasks[r]) {
      task[t.id] = t;
      owner[t.id] = static_cast<RankId>(r);
      total += t.load;
    }
  }
  auto const tasks_before = owner.size();

  // Well-formed: a known task moves once, from its home, with its load,
  // to another valid rank.
  std::set<TaskId> moved;
  for (Migration const& m : result.migrations) {
    ASSERT_TRUE(owner.count(m.task)) << m.task;
    EXPECT_EQ(m.from, owner[m.task]);
    EXPECT_EQ(m.load, task[m.task].load);
    EXPECT_NE(m.from, m.to);
    ASSERT_GE(m.to, 0);
    ASSERT_LT(m.to, input.num_ranks());
    EXPECT_TRUE(moved.insert(m.task).second) << m.task;
    owner[m.task] = m.to;
  }

  // Conservation: every task still has one owner, and the projected
  // loads are the input's with the moves applied.
  EXPECT_EQ(owner.size(), tasks_before);
  std::vector<double> projected(input.tasks.size(), 0.0);
  for (auto const& [id, rank] : owner) {
    projected[static_cast<std::size_t>(rank)] += task[id].load;
  }
  ASSERT_EQ(result.new_rank_loads.size(), projected.size());
  double after = 0.0;
  for (std::size_t r = 0; r < projected.size(); ++r) {
    EXPECT_NEAR(result.new_rank_loads[r], projected[r], 1e-9) << r;
    after += result.new_rank_loads[r];
  }
  EXPECT_NEAR(after, total, 1e-9);

  // Never worse than where it started, and finite.
  double const before = imbalance(input.rank_loads());
  EXPECT_TRUE(std::isfinite(result.achieved_imbalance));
  EXPECT_LE(result.achieved_imbalance, before + 1e-12);
  if (input.num_ranks() == 1 || before == 0.0) {
    EXPECT_TRUE(result.migrations.empty());
  }

  EXPECT_EQ(audit::violation_count(), 0u) << audit::last_violation();
}

INSTANTIATE_TEST_SUITE_P(
    BothFlavorsBothDrivers, DegenerateLoads, ::testing::ValuesIn(sweep()),
    [](::testing::TestParamInfo<SweepCase> const& sweep_case) {
      return sweep_case.param.name();
    });

} // namespace
} // namespace tlb::lb
