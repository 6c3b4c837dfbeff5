/// \file telemetry_neutrality_test.cpp
/// Telemetry observes decisions and never makes them. It is always
/// compiled in and dormant by default, so a traced run must reproduce the
/// untraced program bit for bit: otherwise a trace would explain decisions
/// the benchmark never made. Each seeded case runs twice, with telemetry
/// off and on, and its decision-bearing outputs must match exactly.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/fault_config.hpp"
#include "fault/fault_plane.hpp"
#include "lb/strategy/lb_manager.hpp"
#include "obs/causal.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "pic/app.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace tlb {
namespace {

/// Restores the telemetry switch and empties the process-wide buffers a
/// traced run fills, so neither leaks into later tests.
class TelemetryRestorer {
public:
  TelemetryRestorer() : was_enabled_{obs::enabled()} {}
  ~TelemetryRestorer() {
    obs::set_enabled(was_enabled_);
    obs::Tracer::instance().clear();
    obs::CausalLog::instance().clear();
    obs::PhaseTimeline::instance().clear();
  }
  TelemetryRestorer(TelemetryRestorer const&) = delete;
  TelemetryRestorer& operator=(TelemetryRestorer const&) = delete;

private:
  bool was_enabled_;
};

/// Every value compared is a double or a count below 2^53, so one vector
/// of doubles holds a run's outcome exactly.
using Outcome = std::vector<double>;

template <typename Range>
void append(Outcome& out, Range const& values) {
  for (auto const v : values) {
    out.push_back(static_cast<double>(v));
  }
}

/// PicApp with TemperedLB, 4x4 ranks, 30 steps, LB every 10: run totals,
/// per-step imbalance and migrations, and the final owner of every color.
Outcome run_pic(bool telemetry) {
  obs::set_enabled(telemetry);
  pic::PicConfig cfg;
  cfg.mesh.ranks_x = 4;
  cfg.mesh.ranks_y = 4;
  cfg.mesh.colors_x = 3;
  cfg.mesh.colors_y = 2;
  cfg.bdot.base_rate = 50.0;
  cfg.bdot.total_steps = 30;
  cfg.steps = 30;
  cfg.lb_period = 10;
  cfg.strategy = "tempered";
  cfg.lb_params.rounds = 4;
  cfg.lb_params.num_trials = 2;
  cfg.lb_params.num_iterations = 3;
  cfg.seed = 0x7e1e;
  pic::PicApp app{cfg};
  auto const result = app.run();
  auto const& t = result.totals;
  EXPECT_GT(t.migrations, 0u) << "the case must exercise the balancer";
  Outcome out{t.t_particle, t.t_nonparticle, t.t_lb, t.t_total};
  append(out, std::vector{t.migrations, t.migration_bytes, t.exchanged,
                          t.remote_exchanged});
  for (pic::StepMetrics const& step : result.steps) {
    append(out, std::vector{step.imbalance,
                            static_cast<double>(step.migrations)});
  }
  for (pic::ColorId c = 0; c < app.mesh().num_colors(); ++c) {
    out.push_back(app.owner_of(c));
  }
  return out;
}

class Payload final : public rt::Migratable {
public:
  [[nodiscard]] std::size_t wire_bytes() const override { return 96; }
};

/// One LbManager::invoke under the chaos profile, which drops, duplicates
/// and delays messages but never crashes a rank (a crash would dump a
/// flight record): the report, the final owner of every task, and the
/// runtime's per-kind message, byte and fault counts.
Outcome invoke_under_faults(bool telemetry) {
  constexpr RankId kRanks = 32;
  constexpr TaskId kTasks = 240;
  obs::set_enabled(telemetry);
  rt::RuntimeConfig config;
  config.num_ranks = kRanks;
  config.seed = 0xfa17;
  rt::Runtime runtime{config};
  auto const profile = fault::FaultConfig::chaos();
  EXPECT_EQ(profile.crash_rank, invalid_rank);
  auto plane = fault::install_fault_plane(runtime, profile);

  lb::StrategyInput input;
  input.tasks.resize(static_cast<std::size_t>(kRanks));
  rt::ObjectStore store{kRanks};
  Rng rng{23};
  for (TaskId t = 0; t < kTasks; ++t) {
    auto const rank = static_cast<RankId>(t % 6);
    input.tasks[static_cast<std::size_t>(rank)].push_back(
        {t, rng.uniform(0.5, 1.5)});
    store.create(rank, t, std::make_unique<Payload>());
  }
  auto params = lb::LbParams::tempered();
  params.num_trials = 2;
  params.num_iterations = 4;
  params.rounds = 5;
  lb::LbManager manager{runtime, "tempered", params};
  auto const report = manager.invoke(input, store);
  auto const stats = runtime.stats();
  runtime.set_fault_hook(nullptr);
  EXPECT_GT(report.cost.migration_count, 0u);
  EXPECT_GT(stats.kind_dropped[static_cast<std::size_t>(
                rt::MessageKind::gossip)],
            0u)
      << "the fault plane must fire, so the hardened paths run";

  Outcome out{report.imbalance_before, report.imbalance_after,
              report.cost.migrated_load};
  append(out, std::vector{report.cost.migration_count,
                          report.cost.lb_messages, report.cost.lb_bytes,
                          report.migration_payload_bytes,
                          report.aborted_rounds, stats.messages, stats.bytes});
  append(out, report.new_rank_loads);
  for (TaskId t = 0; t < kTasks; ++t) {
    out.push_back(store.owner(t));
  }
  for (auto const* counts :
       {&stats.kind_messages, &stats.kind_bytes, &stats.kind_dropped,
        &stats.kind_delayed, &stats.kind_duplicated, &stats.kind_retried}) {
    append(out, *counts);
  }
  return out;
}

TEST(TelemetryNeutrality, TracedPicRunMakesTheUntracedDecisions) {
  TelemetryRestorer restore;
  EXPECT_EQ(run_pic(true), run_pic(false));
}

TEST(TelemetryNeutrality, TracedInvokeUnderFaultsMakesTheUntracedDecisions) {
  TelemetryRestorer restore;
  EXPECT_EQ(invoke_under_faults(true), invoke_under_faults(false));
}

} // namespace
} // namespace tlb
