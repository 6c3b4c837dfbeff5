#include "pic/app.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/causal.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"

namespace tlb::pic {
namespace {

/// Small, fast configuration: 2x2 ranks, 6 colors each.
PicConfig small_config(int steps = 30) {
  PicConfig cfg;
  cfg.mesh.ranks_x = 2;
  cfg.mesh.ranks_y = 2;
  cfg.mesh.colors_x = 3;
  cfg.mesh.colors_y = 2;
  cfg.mesh.color_cells_x = 4;
  cfg.mesh.color_cells_y = 4;
  cfg.bdot.base_rate = 50.0;
  cfg.bdot.growth = 1.0;
  cfg.bdot.total_steps = steps;
  // Persistence-friendly scenario at this tiny scale: slow orbit and slow
  // particles keep the hot spot where the previous phase measured it.
  cfg.bdot.orbit_periods = 0.25;
  cfg.bdot.sigma_frac = 0.05;
  cfg.bdot.speed_lo = 0.005;
  cfg.bdot.speed_hi = 0.05;
  cfg.steps = steps;
  cfg.first_lb_step = 2;
  cfg.lb_period = 10;
  cfg.lb_params.rounds = 4;
  cfg.lb_params.num_trials = 2;
  cfg.lb_params.num_iterations = 3;
  return cfg;
}

TEST(PicApp, ParticleCountMatchesInjectionSchedule) {
  auto cfg = small_config(10);
  cfg.strategy = "none";
  PicApp app{cfg};
  auto const result = app.run();
  std::size_t expected = 0;
  BDotScenario const scenario{cfg.bdot};
  for (int s = 0; s < 10; ++s) {
    expected += static_cast<std::size_t>(scenario.count(s));
  }
  EXPECT_EQ(app.total_particles(), expected);
  EXPECT_EQ(result.steps.back().total_particles, expected);
}

TEST(PicApp, SpmdNeverMigrates) {
  auto cfg = small_config();
  cfg.mode = ExecutionMode::spmd;
  PicApp app{cfg};
  auto const result = app.run();
  EXPECT_EQ(result.totals.migrations, 0u);
  EXPECT_DOUBLE_EQ(result.totals.t_lb, 0.0);
  for (ColorId c = 0; c < app.mesh().num_colors(); ++c) {
    EXPECT_EQ(app.owner_of(c), app.mesh().home_rank_of_color(c));
  }
}

TEST(PicApp, AmtNoLbNeverMigratesButCostsMore) {
  auto spmd_cfg = small_config();
  spmd_cfg.mode = ExecutionMode::spmd;
  auto amt_cfg = small_config();
  amt_cfg.mode = ExecutionMode::amt;
  amt_cfg.strategy = "none";
  auto const spmd = PicApp{spmd_cfg}.run();
  auto const amt = PicApp{amt_cfg}.run();
  EXPECT_EQ(amt.totals.migrations, 0u);
  // The AMT overhead makes both components strictly slower (Fig. 2's 23%).
  EXPECT_GT(amt.totals.t_particle, spmd.totals.t_particle * 1.1);
  EXPECT_GT(amt.totals.t_nonparticle, spmd.totals.t_nonparticle * 1.01);
}

TEST(PicApp, TemperedLbMigratesAndBeatsNoLb) {
  auto nolb_cfg = small_config(40);
  nolb_cfg.strategy = "none";
  auto lb_cfg = small_config(40);
  lb_cfg.strategy = "tempered";
  auto const nolb = PicApp{nolb_cfg}.run();
  auto const lb = PicApp{lb_cfg}.run();
  EXPECT_GT(lb.totals.migrations, 0u);
  // With the hot blob concentrated on one rank, balancing must cut the
  // particle time substantially.
  EXPECT_LT(lb.totals.t_particle, 0.9 * nolb.totals.t_particle);
}

TEST(PicApp, LbCostAppearsOnlyOnLbSteps) {
  auto cfg = small_config(25);
  cfg.first_lb_step = 2;
  cfg.lb_period = 10;
  PicApp app{cfg};
  auto const result = app.run();
  for (auto const& m : result.steps) {
    bool const is_lb =
        m.step == 2 || (m.step > 2 && m.step % 10 == 0);
    if (is_lb) {
      EXPECT_GT(m.t_lb, 0.0) << "step " << m.step;
    } else {
      EXPECT_DOUBLE_EQ(m.t_lb, 0.0) << "step " << m.step;
    }
  }
}

TEST(PicApp, TotalsEqualSumOfSteps) {
  auto cfg = small_config(15);
  PicApp app{cfg};
  auto const result = app.run();
  double tp = 0.0;
  double tn = 0.0;
  double tl = 0.0;
  for (auto const& m : result.steps) {
    tp += m.t_particle;
    tn += m.t_nonparticle;
    tl += m.t_lb;
    EXPECT_NEAR(m.t_step, m.t_particle + m.t_nonparticle + m.t_lb, 1e-12);
  }
  EXPECT_NEAR(result.totals.t_particle, tp, 1e-9);
  EXPECT_NEAR(result.totals.t_nonparticle, tn, 1e-9);
  EXPECT_NEAR(result.totals.t_lb, tl, 1e-9);
  EXPECT_NEAR(result.totals.t_total, tp + tn + tl, 1e-9);
}

TEST(PicApp, MetricsInternallyConsistent) {
  auto cfg = small_config(20);
  PicApp app{cfg};
  auto const result = app.run();
  for (auto const& m : result.steps) {
    EXPECT_GE(m.max_rank_load, m.avg_rank_load - 1e-12);
    EXPECT_GE(m.avg_rank_load, m.min_rank_load - 1e-12);
    EXPECT_LE(m.max_task_load, m.max_rank_load + 1e-12);
    EXPECT_NEAR(m.imbalance, m.max_rank_load / m.avg_rank_load - 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(m.t_particle, m.max_rank_load);
  }
}

TEST(PicApp, DeterministicGivenSeed) {
  auto const run_once = [] {
    PicApp app{small_config(20)};
    return app.run();
  };
  auto const a = run_once();
  auto const b = run_once();
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.steps[i].t_step, b.steps[i].t_step);
    EXPECT_EQ(a.steps[i].total_particles, b.steps[i].total_particles);
    EXPECT_EQ(a.steps[i].migrations, b.steps[i].migrations);
  }
}

TEST(PicApp, ConservesParticlesAcrossMigrations) {
  auto cfg = small_config(35);
  cfg.strategy = "greedy";
  PicApp app{cfg};
  (void)app.run();
  std::size_t expected = 0;
  BDotScenario const scenario{cfg.bdot};
  for (int s = 0; s < 35; ++s) {
    expected += static_cast<std::size_t>(scenario.count(s));
  }
  EXPECT_EQ(app.total_particles(), expected);
}

TEST(PicApp, AdaptiveTriggerAddsInvocations) {
  auto fixed = small_config(40);
  fixed.lb_period = 20;
  auto adaptive = fixed;
  adaptive.lb_trigger_imbalance = 0.3;
  adaptive.lb_trigger_cooldown = 5;
  auto const count_lb = [](pic::RunResult const& r) {
    std::size_t n = 0;
    for (auto const& m : r.steps) {
      if (m.t_lb > 0.0) {
        ++n;
      }
    }
    return n;
  };
  auto const fixed_n = count_lb(PicApp{fixed}.run());
  auto const adaptive_n = count_lb(PicApp{adaptive}.run());
  EXPECT_GT(adaptive_n, fixed_n);
}

TEST(PicApp, AdaptiveTriggerRespectsCooldown) {
  auto cfg = small_config(40);
  cfg.lb_period = 1000; // periodic path effectively off after step 2
  cfg.lb_trigger_imbalance = 0.01; // always above threshold
  cfg.lb_trigger_cooldown = 7;
  PicApp app{cfg};
  auto const result = app.run();
  int last = -100;
  for (auto const& m : result.steps) {
    if (m.t_lb > 0.0 && m.step > cfg.first_lb_step) {
      EXPECT_GE(m.step - last, 7) << "at step " << m.step;
      last = m.step;
    } else if (m.t_lb > 0.0) {
      last = m.step;
    }
  }
}

/// Steps whose t_lb is positive: where the balancer ran.
std::vector<int> lb_steps(RunResult const& result) {
  std::vector<int> steps;
  for (auto const& m : result.steps) {
    if (m.t_lb > 0.0) {
      steps.push_back(m.step);
    }
  }
  return steps;
}

TEST(PicApp, LbReportPhasesAreSteps) {
  auto cfg = small_config(25); // first_lb_step 2, lb_period 10
  PicApp app{cfg};
  auto const result = app.run();
  EXPECT_EQ(lb_steps(result), (std::vector<int>{2, 10, 20}));
  auto const& history = app.lb_manager()->history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].phase, 2u);
  EXPECT_EQ(history[1].phase, 10u);
  EXPECT_EQ(history[2].phase, 20u);
}

TEST(PicApp, TracedRunRecordsEveryStep) {
  bool const was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::PhaseTimeline::instance().clear();
  auto cfg = small_config(20);
  cfg.lb_period = 5;
  PicApp app{cfg};
  (void)app.run();
  auto const samples = obs::PhaseTimeline::instance().samples();
  obs::set_enabled(was_enabled);
  obs::Tracer::instance().clear();
  obs::CausalLog::instance().clear();
  obs::PhaseTimeline::instance().clear();

  // One sample per step, numbered by step, each naming the policy that
  // decided it; the balancer ran at steps 2, 5, 10 and 15.
  ASSERT_EQ(samples.size(), 20u);
  std::vector<std::uint64_t> invoked;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].phase, i);
    EXPECT_FALSE(samples[i].policy.empty()) << "step " << i;
    if (samples[i].lb_invoked) {
      invoked.push_back(samples[i].phase);
    }
  }
  EXPECT_EQ(invoked, (std::vector<std::uint64_t>{2, 5, 10, 15}));
}

TEST(PicApp, LbCostIsTheCostModelPrice) {
  for (char const* spec : {"", "costbenefit"}) {
    auto cfg = small_config(30);
    cfg.policy = spec;
    PicApp app{cfg};
    auto const result = app.run();
    lb::LbCostModel const model{cfg.work.lb_per_message, cfg.work.lb_per_byte,
                                cfg.work.migration_per_byte, 0.0};
    auto const steps = lb_steps(result);
    auto const& history = app.lb_manager()->history();
    ASSERT_FALSE(history.empty()) << "policy '" << spec << "'";
    ASSERT_EQ(steps.size(), history.size()) << "policy '" << spec << "'";
    for (std::size_t i = 0; i < history.size(); ++i) {
      auto const& report = history[i];
      ASSERT_EQ(report.phase, static_cast<std::size_t>(steps[i]));
      EXPECT_EQ(result.steps[report.phase].t_lb,
                model.cost(report.cost.lb_messages, report.cost.lb_bytes,
                           report.migration_payload_bytes))
          << "policy '" << spec << "', step " << report.phase;
    }
  }
}

class PicStrategySweep : public ::testing::TestWithParam<char const*> {};

TEST_P(PicStrategySweep, EveryStrategyRunsAndBalances) {
  auto cfg = small_config(30);
  cfg.strategy = GetParam();
  PicApp app{cfg};
  auto const result = app.run();
  auto nolb_cfg = small_config(30);
  nolb_cfg.strategy = "none";
  auto const nolb = PicApp{nolb_cfg}.run();
  // Compare time-averaged imbalance after the first LB invocation; the
  // stale-measurement noise of any single step is averaged out.
  auto const mean_imbalance = [](RunResult const& r, int from_step) {
    double sum = 0.0;
    int n = 0;
    for (auto const& m : r.steps) {
      if (m.step >= from_step) {
        sum += m.imbalance;
        ++n;
      }
    }
    return sum / n;
  };
  EXPECT_LT(mean_imbalance(result, 3), mean_imbalance(nolb, 3));
  EXPECT_GT(result.totals.migrations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, PicStrategySweep,
                         ::testing::Values("tempered", "grapevine", "greedy",
                                           "hier"));

} // namespace
} // namespace tlb::pic
