/// \file cross_validation_test.cpp
/// Integration tests across modules: the distributed gossip strategy and
/// the sequential analysis framework implement the same algorithm through
/// different execution substrates, so on the same workload they must
/// reach comparable quality; the PIC application composes all of it.

#include <gtest/gtest.h>

#include "lb/strategy/gossip_strategy.hpp"
#include "lb/strategy/greedy.hpp"
#include "lbaf/assignment.hpp"
#include "lbaf/experiment.hpp"
#include "lbaf/workload.hpp"
#include "pic/app.hpp"
#include "support/stats.hpp"

namespace tlb {
namespace {

lb::StrategyInput to_input(lbaf::Workload const& workload) {
  lb::StrategyInput input;
  input.tasks.resize(static_cast<std::size_t>(workload.num_ranks));
  for (std::size_t i = 0; i < workload.tasks.size(); ++i) {
    input.tasks[static_cast<std::size_t>(workload.initial_rank[i])]
        .push_back(workload.tasks[i]);
  }
  return input;
}

TEST(CrossValidation, DistributedAndSequentialTemperedAgreeOnQuality) {
  auto const workload = lbaf::make_clustered(
      128, 4, 1200, lbaf::LoadDistribution::gamma, 1.0, 99);

  auto params = lb::LbParams::tempered();
  params.rounds = 6;
  params.num_trials = 3;
  params.num_iterations = 5;

  auto const sequential = lbaf::run_experiment(params, workload);

  rt::RuntimeConfig cfg;
  cfg.num_ranks = 128;
  rt::Runtime runtime{cfg};
  lb::GossipStrategy strategy{lb::GossipStrategy::Flavor::tempered};
  auto const distributed =
      strategy.balance(runtime, to_input(workload), params);

  // Different RNG paths, same algorithm: require the same order of
  // magnitude of quality, both far below the initial imbalance.
  double const initial = sequential.initial_imbalance;
  EXPECT_LT(sequential.best_imbalance, 0.1 * initial);
  EXPECT_LT(distributed.achieved_imbalance, 0.1 * initial);
  double const ratio =
      std::max(sequential.best_imbalance, distributed.achieved_imbalance) /
      std::max(1e-9, std::min(sequential.best_imbalance,
                              distributed.achieved_imbalance));
  EXPECT_LT(ratio, 5.0) << "sequential " << sequential.best_imbalance
                        << " vs distributed "
                        << distributed.achieved_imbalance;
}

TEST(CrossValidation, SequentialBestMigrationsMatchDistributedSemantics) {
  // Apply each path's migrations to a fresh Assignment and verify both
  // reach the imbalance they claim.
  auto const workload = lbaf::make_bimodal(
      128, 4, 800, lbaf::BimodalSpec{}, 31);
  auto params = lb::LbParams::tempered();
  params.rounds = 6;
  params.num_trials = 2;
  params.num_iterations = 4;

  auto const sequential = lbaf::run_experiment(params, workload);
  lbaf::Assignment seq_check{workload};
  seq_check.apply(sequential.best_migrations);
  EXPECT_NEAR(seq_check.imbalance(), sequential.best_imbalance, 1e-9);

  rt::RuntimeConfig cfg;
  cfg.num_ranks = 128;
  rt::Runtime runtime{cfg};
  lb::GossipStrategy strategy{lb::GossipStrategy::Flavor::tempered};
  auto const distributed =
      strategy.balance(runtime, to_input(workload), params);
  lbaf::Assignment dist_check{workload};
  dist_check.apply(distributed.migrations);
  EXPECT_NEAR(dist_check.imbalance(), distributed.achieved_imbalance, 1e-9);
}

TEST(CrossValidation, GreedyReferenceBoundsGossipQuality) {
  auto const workload = lbaf::make_clustered(
      96, 3, 900, lbaf::LoadDistribution::uniform, 1.0, 17);
  double const greedy_floor = lb::greedy_imbalance(to_input(workload));

  rt::RuntimeConfig cfg;
  cfg.num_ranks = 96;
  rt::Runtime runtime{cfg};
  lb::GossipStrategy strategy{lb::GossipStrategy::Flavor::tempered};
  auto params = lb::LbParams::tempered();
  params.rounds = 6;
  auto const result = strategy.balance(runtime, to_input(workload), params);
  EXPECT_GE(result.achieved_imbalance, greedy_floor - 1e-9);
}

TEST(CrossValidation, PicRunsOnThreadedRuntime) {
  pic::PicConfig cfg;
  cfg.mesh.ranks_x = 4;
  cfg.mesh.ranks_y = 4;
  cfg.steps = 30;
  cfg.bdot.total_steps = 30;
  cfg.lb_period = 10;
  cfg.runtime_threads = 4;
  cfg.lb_params.rounds = 4;
  cfg.lb_params.num_trials = 2;
  cfg.lb_params.num_iterations = 2;
  pic::PicApp app{cfg};
  auto const result = app.run();
  EXPECT_EQ(result.steps.size(), 30u);
  EXPECT_GT(result.totals.migrations, 0u);
  // Particle conservation across threaded migrations.
  pic::BDotScenario const scenario{cfg.bdot};
  std::size_t expected = 0;
  for (int s = 0; s < 30; ++s) {
    expected += static_cast<std::size_t>(scenario.count(s));
  }
  EXPECT_EQ(app.total_particles(), expected);
}

TEST(CrossValidation, PicUnderRandomDeliveryStillConserves) {
  // The full application over the fault-injecting runtime: protocol
  // correctness must not depend on delivery order.
  pic::PicConfig cfg;
  cfg.mesh.ranks_x = 4;
  cfg.mesh.ranks_y = 4;
  cfg.steps = 25;
  cfg.bdot.total_steps = 25;
  cfg.lb_period = 10;
  cfg.lb_params.rounds = 4;
  cfg.lb_params.num_trials = 2;
  cfg.lb_params.num_iterations = 2;
  // PicApp owns its Runtime; emulate random delivery by a custom seed
  // path: run twice with different seeds and check conservation both
  // times (delivery-order robustness is covered directly in the strategy
  // extension tests; here we assert end-to-end conservation).
  for (std::uint64_t seed : {0xA1ull, 0xB2ull}) {
    cfg.seed = seed;
    pic::PicApp app{cfg};
    (void)app.run();
    pic::BDotScenario const scenario{cfg.bdot};
    std::size_t expected = 0;
    for (int s = 0; s < 25; ++s) {
      expected += static_cast<std::size_t>(scenario.count(s));
    }
    EXPECT_EQ(app.total_particles(), expected);
  }
}

} // namespace
} // namespace tlb
