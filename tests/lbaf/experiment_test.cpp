#include "lbaf/experiment.hpp"

#include <gtest/gtest.h>

#include "lb/strategy/greedy.hpp"
#include "lb/strategy/strategy.hpp"

namespace tlb::lbaf {
namespace {

/// Scaled-down §V-B regime: bimodal loads whose heavy population exceeds
/// l_ave, so the original criterion has an immovable mass and stalls while
/// the relaxed criterion converges (the paper's 187-vs-0.62 contrast).
Workload paper_like_workload(RankId ranks = 512, RankId loaded = 4,
                             std::size_t tasks = 1200,
                             std::uint64_t seed = 42) {
  return make_bimodal(ranks, loaded, tasks, BimodalSpec{}, seed);
}

TEST(Experiment, OriginalCriterionStallsAfterFirstIteration) {
  // The §V-B phenomenon: with the original criterion the imbalance drops
  // once and then stays trapped near a (bad) local minimum with ~100%
  // rejection rates.
  auto params = lb::LbParams::grapevine();
  params.num_iterations = 6;
  params.num_trials = 1;
  params.rounds = 8;
  auto const result = run_experiment(params, paper_like_workload());
  auto const records = trial_records(result, 0);
  ASSERT_EQ(records.size(), 6u);
  // First iteration makes most of whatever progress will happen...
  EXPECT_LT(records[0].imbalance, result.initial_imbalance);
  // ...then stalls: later iterations barely move and reject nearly all.
  double const after_first = records[0].imbalance;
  EXPECT_GT(records.back().imbalance, 0.3 * after_first);
  EXPECT_GT(records.back().rejection_rate, 90.0);
}

TEST(Experiment, RelaxedCriterionConvergesFar) {
  auto params = lb::LbParams::tempered();
  params.num_iterations = 8;
  params.num_trials = 1;
  params.order = lb::OrderKind::arbitrary;
  params.rounds = 8;
  auto const result = run_experiment(params, paper_like_workload());
  // The relaxed criterion should reach low single digits from I ~ O(60).
  EXPECT_GT(result.initial_imbalance, 20.0);
  EXPECT_LT(result.best_imbalance, 2.0);
}

TEST(Experiment, RelaxedBeatsOriginalSubstantially) {
  auto const workload = paper_like_workload();
  auto grapevine = lb::LbParams::grapevine();
  grapevine.num_iterations = 8;
  grapevine.rounds = 8;
  auto tempered = lb::LbParams::tempered();
  tempered.num_iterations = 8;
  tempered.num_trials = 1;
  tempered.rounds = 8;
  auto const original = run_experiment(grapevine, workload);
  auto const relaxed = run_experiment(tempered, workload);
  EXPECT_LT(relaxed.best_imbalance, 0.2 * original.best_imbalance);
}

TEST(Experiment, FirstIterationRejectionRatesDiffer) {
  // §V-B vs §V-D: original criterion rejects ~95% in iteration 1;
  // relaxed rejects only a few percent.
  auto const workload = paper_like_workload();
  auto grapevine = lb::LbParams::grapevine();
  grapevine.rounds = 8;
  auto tempered = lb::LbParams::tempered();
  tempered.num_iterations = 1;
  tempered.num_trials = 1;
  tempered.order = lb::OrderKind::arbitrary;
  tempered.rounds = 8;
  auto const original = run_experiment(grapevine, workload);
  auto const relaxed = run_experiment(tempered, workload);
  // The heavy population is immovable for the original criterion, so its
  // rejection rate is substantial from the start; the relaxed criterion
  // accepts nearly everything in iteration 1 (§V-D: 5.4% vs 94.5%).
  EXPECT_GT(original.records.at(0).rejection_rate, 15.0);
  EXPECT_LT(relaxed.records.at(0).rejection_rate, 10.0);
  EXPECT_GT(original.records.at(0).rejection_rate,
            2.0 * relaxed.records.at(0).rejection_rate);
}

TEST(Experiment, BestMigrationsReproduceBestImbalance) {
  auto params = lb::LbParams::tempered();
  params.num_iterations = 4;
  params.num_trials = 2;
  params.rounds = 8;
  auto const workload = paper_like_workload(128, 4, 1000, 7);
  auto const result = run_experiment(params, workload);
  Assignment check{workload};
  check.apply(result.best_migrations);
  EXPECT_TRUE(check.validate());
  EXPECT_NEAR(check.imbalance(), result.best_imbalance, 1e-9);
  EXPECT_NEAR(check.total_load(), Assignment{workload}.total_load(), 1e-9);
}

TEST(Experiment, MultipleTrialsNeverWorseThanSingle) {
  auto const workload = paper_like_workload(128, 4, 1000, 21);
  auto single = lb::LbParams::tempered();
  single.num_iterations = 3;
  single.num_trials = 1;
  single.rounds = 8;
  auto multi = single;
  multi.num_trials = 4;
  auto const one = run_experiment(single, workload);
  auto const four = run_experiment(multi, workload);
  EXPECT_LE(four.best_imbalance, one.best_imbalance + 1e-12);
}

TEST(Experiment, DeterministicGivenSeed) {
  auto params = lb::LbParams::tempered();
  params.num_iterations = 3;
  params.num_trials = 2;
  params.rounds = 6;
  auto const workload = paper_like_workload(64, 4, 500, 3);
  auto const a = run_experiment(params, workload);
  auto const b = run_experiment(params, workload);
  EXPECT_EQ(a.best_imbalance, b.best_imbalance);
  EXPECT_EQ(a.best_migrations.size(), b.best_migrations.size());
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].transfers, b.records[i].transfers);
    EXPECT_EQ(a.records[i].rejected, b.records[i].rejected);
    EXPECT_DOUBLE_EQ(a.records[i].imbalance, b.records[i].imbalance);
  }
}

TEST(Experiment, ImbalanceNeverBelowGreedyFloorByMuch) {
  // Greedy with global knowledge is near optimal; the distributed scheme
  // cannot do better than the theoretical floor (max task load bound).
  auto const workload = paper_like_workload(64, 4, 800, 17);
  auto params = lb::LbParams::tempered();
  params.num_iterations = 6;
  params.num_trials = 2;
  params.rounds = 8;
  auto const result = run_experiment(params, workload);
  Assignment const initial{workload};
  lb::StrategyInput input;
  for (RankId r = 0; r < initial.num_ranks(); ++r) {
    input.tasks.push_back(initial.tasks_of(r));
  }
  double const greedy = lb::greedy_imbalance(input);
  EXPECT_GE(result.best_imbalance, greedy - 1e-9);
}

TEST(Experiment, TrialRecordsFilterAndSort) {
  auto params = lb::LbParams::tempered();
  params.num_iterations = 2;
  params.num_trials = 3;
  params.rounds = 4;
  auto const result =
      run_experiment(params, paper_like_workload(32, 2, 200, 5));
  for (int t = 0; t < 3; ++t) {
    auto const records = trial_records(result, t);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].iteration, 1);
    EXPECT_EQ(records[1].iteration, 2);
    EXPECT_EQ(records[0].trial, t);
  }
}

} // namespace
} // namespace tlb::lbaf
