#include "lb/strategy/lb_manager.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace tlb::lb {
namespace {

class Chunk final : public rt::Migratable {
public:
  explicit Chunk(std::size_t bytes) : bytes_{bytes} {}
  [[nodiscard]] std::size_t wire_bytes() const override { return bytes_; }

private:
  std::size_t bytes_;
};

rt::RuntimeConfig config(RankId ranks) {
  rt::RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  return cfg;
}

TEST(LbManager, GatherInputFromInstrumentation) {
  rt::PhaseInstrumentation inst{3};
  inst.record(0, 1, 2.0);
  inst.record(2, 5, 4.0);
  inst.start_phase();
  auto const input = LbManager::gather_input(inst, 3);
  ASSERT_EQ(input.tasks.size(), 3u);
  ASSERT_EQ(input.tasks[0].size(), 1u);
  EXPECT_EQ(input.tasks[0][0].id, 1);
  EXPECT_DOUBLE_EQ(input.tasks[0][0].load, 2.0);
  EXPECT_TRUE(input.tasks[1].empty());
  ASSERT_EQ(input.tasks[2].size(), 1u);
}

TEST(LbManager, InvokeMovesObjectsAndRecordsReport) {
  rt::Runtime rt{config(8)};
  rt::ObjectStore store{8};
  StrategyInput input;
  input.tasks.resize(8);
  Rng rng{3};
  for (TaskId i = 0; i < 40; ++i) {
    double const load = rng.uniform(0.5, 1.5);
    input.tasks[0].push_back({i, load});
    store.create(0, i, std::make_unique<Chunk>(64));
  }

  auto params = LbParams::tempered();
  params.num_trials = 1;
  params.num_iterations = 3;
  params.rounds = 5;
  LbManager manager{rt, "tempered", params};
  auto const report = manager.invoke(input, store);

  EXPECT_GT(report.imbalance_before, 5.0);
  EXPECT_LT(report.imbalance_after, report.imbalance_before);
  EXPECT_GT(report.cost.migration_count, 0u);
  EXPECT_EQ(report.migration_payload_bytes,
            report.cost.migration_count * 64u);
  // Objects actually moved off rank 0.
  EXPECT_LT(store.tasks_on(0).size(), 40u);
  EXPECT_EQ(store.total_tasks(), 40u);
  EXPECT_EQ(manager.history().size(), 1u);
}

TEST(LbManager, StrategyNameExposed) {
  rt::Runtime rt{config(2)};
  LbManager manager{rt, "greedy", LbParams::tempered()};
  EXPECT_EQ(manager.strategy_name(), "greedy");
}

TEST(LbManager, DecideDoesNotTouchStore) {
  rt::Runtime rt{config(4)};
  StrategyInput input;
  input.tasks.resize(4);
  for (TaskId i = 0; i < 8; ++i) {
    input.tasks[0].push_back({i, 1.0});
  }
  LbManager manager{rt, "greedy", LbParams::tempered()};
  auto const result = manager.decide(input);
  EXPECT_FALSE(result.migrations.empty());
  EXPECT_TRUE(manager.history().empty());
}

TEST(LbManager, UnknownStrategyThrowsAtConstruction) {
  rt::Runtime rt{config(2)};
  EXPECT_THROW(LbManager(rt, "bogus", LbParams::tempered()),
               std::invalid_argument);
}

TEST(LbManager, RepeatedInvocationsTrackHistory) {
  rt::Runtime rt{config(4)};
  rt::ObjectStore store{4};
  StrategyInput input;
  input.tasks.resize(4);
  for (TaskId i = 0; i < 12; ++i) {
    input.tasks[0].push_back({i, 1.0});
    store.create(0, i, std::make_unique<Chunk>(8));
  }
  LbManager manager{rt, "greedy", LbParams::tempered()};
  (void)manager.invoke(input, store);

  // Second invocation from the new placement: build fresh input.
  StrategyInput second;
  second.tasks.resize(4);
  for (RankId r = 0; r < 4; ++r) {
    for (TaskId const id : store.tasks_on(r)) {
      second.tasks[static_cast<std::size_t>(r)].push_back({id, 1.0});
    }
  }
  auto const report = manager.invoke(second, store);
  EXPECT_EQ(manager.history().size(), 2u);
  // Already balanced: second invocation should migrate nothing.
  EXPECT_EQ(report.cost.migration_count, 0u);
  EXPECT_NEAR(report.imbalance_after, 0.0, 1e-12);
}

TEST(LbCostModel, SumsFixedAndTrafficTerms) {
  LbCostModel const model{2.0, 0.5, 0.25, 10.0};
  EXPECT_DOUBLE_EQ(model.cost(0, 0, 0), 10.0);
  EXPECT_DOUBLE_EQ(model.cost(3, 4, 8), 10.0 + 6.0 + 2.0 + 2.0);
}

TEST(LbManager, InvokeIfBeneficialSkipIsSideEffectFree) {
  rt::Runtime rt{config(4)};
  rt::ObjectStore store{4};
  StrategyInput input;
  input.tasks.resize(4);
  for (TaskId i = 0; i < 8; ++i) {
    input.tasks[0].push_back({i, 1.0});
    store.create(0, i, std::make_unique<Chunk>(8));
  }
  LbManager manager{rt, "greedy", LbParams::tempered()};
  auto policy = policy::make_policy("never");
  auto const outcome = manager.invoke_if_beneficial(input, store, *policy);

  EXPECT_FALSE(outcome.invoked);
  EXPECT_FALSE(outcome.decision.invoke);
  EXPECT_DOUBLE_EQ(outcome.lb_cost_seconds, 0.0);
  // Nothing moved, nothing balanced, nothing in the history.
  EXPECT_EQ(store.tasks_on(0).size(), 8u);
  EXPECT_TRUE(manager.history().empty());
  EXPECT_DOUBLE_EQ(outcome.report.imbalance_after,
                   outcome.report.imbalance_before);
  EXPECT_EQ(outcome.report.cost.migration_count, 0u);
}

TEST(LbManager, InvokeIfBeneficialInvokeBalancesAndPricesTheRun) {
  rt::Runtime rt{config(4)};
  rt::ObjectStore store{4};
  StrategyInput input;
  input.tasks.resize(4);
  for (TaskId i = 0; i < 8; ++i) {
    input.tasks[0].push_back({i, 1.0});
    store.create(0, i, std::make_unique<Chunk>(16));
  }
  LbManager manager{rt, "greedy", LbParams::tempered()};
  auto policy = policy::make_policy("always");
  LbCostModel const cost_model{0.0, 0.0, 1.0e-3, 0.5};
  auto const outcome =
      manager.invoke_if_beneficial(input, store, *policy, cost_model);

  EXPECT_TRUE(outcome.invoked);
  EXPECT_EQ(manager.history().size(), 1u);
  EXPECT_LT(store.tasks_on(0).size(), 8u);
  EXPECT_LT(outcome.report.imbalance_after, outcome.report.imbalance_before);
  // Priced through the model: fixed term plus the measured payload bytes.
  EXPECT_DOUBLE_EQ(
      outcome.lb_cost_seconds,
      0.5 + 1.0e-3 * static_cast<double>(
                         outcome.report.migration_payload_bytes));
  // The projected post-LB loads ride along for the policy's rebase.
  ASSERT_EQ(outcome.report.new_rank_loads.size(), 4u);
}

TEST(LbManager, PhaseNumberingAdvancesAcrossSkips) {
  rt::Runtime rt{config(2)};
  rt::ObjectStore store{2};
  StrategyInput input;
  input.tasks.resize(2);
  for (TaskId i = 0; i < 4; ++i) {
    input.tasks[0].push_back({i, 1.0});
    store.create(0, i, std::make_unique<Chunk>(8));
  }
  LbManager manager{rt, "greedy", LbParams::tempered()};
  auto never = policy::make_policy("never");
  auto always = policy::make_policy("always");

  EXPECT_EQ(manager.invoke_if_beneficial(input, store, *never).report.phase,
            0u);
  EXPECT_EQ(manager.invoke_if_beneficial(input, store, *never).report.phase,
            1u);
  auto const outcome = manager.invoke_if_beneficial(input, store, *always);
  EXPECT_EQ(outcome.report.phase, 2u);
  // Skipped phases advance the counter but not the history.
  EXPECT_EQ(manager.history().size(), 1u);
  EXPECT_EQ(manager.history().back().phase, 2u);
}

/// A task load must be finite and non-negative at both entry points,
/// before any policy or strategy sees it: a StrategyInput built directly
/// bypasses PhaseInstrumentation::record's check.
class LbManagerDeath
    : public ::testing::TestWithParam<std::tuple<LoadType, std::string>> {};

TEST_P(LbManagerDeath, InvalidTaskLoadAborts) {
  auto const [load, entry] = GetParam();
  rt::Runtime rt{config(2)};
  rt::ObjectStore store{2};
  StrategyInput input;
  input.tasks.resize(2);
  input.tasks[0].push_back({0, 1.0});
  input.tasks[0].push_back({1, load});
  store.create(0, 0, std::make_unique<Chunk>(8));
  store.create(0, 1, std::make_unique<Chunk>(8));
  LbManager manager{rt, "greedy", LbParams::tempered()};
  if (entry == "invoke") {
    EXPECT_DEATH((void)manager.invoke(input, store), "precondition");
  } else {
    // "never" would skip the balancer, so only the input check can abort.
    auto never = policy::make_policy("never");
    EXPECT_DEATH((void)manager.invoke_if_beneficial(input, store, *never),
                 "precondition");
  }
}

INSTANTIATE_TEST_SUITE_P(
    NegativeOrNonFinite, LbManagerDeath,
    ::testing::Combine(
        ::testing::Values(std::numeric_limits<LoadType>::quiet_NaN(),
                          std::numeric_limits<LoadType>::infinity(),
                          -std::numeric_limits<LoadType>::infinity(), -1.0),
        ::testing::Values(std::string{"invoke"},
                          std::string{"invoke_if_beneficial"})));

} // namespace
} // namespace tlb::lb
