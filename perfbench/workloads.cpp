#include "workloads.hpp"

#include <algorithm>

#include "pic/bdot.hpp"
#include "policy/trigger_policy.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

using namespace tlb;

std::vector<Workload> const& workloads() {
  static std::vector<Workload> const all{
      {.name = "bdot-400",
       .kind = Kind::pic,
       .ranks_x = 20,
       .ranks_y = 20,
       .steps = 300,
       .lb_period = 100},
      {.name = "bdot-lbheavy-1024",
       .kind = Kind::pic,
       .ranks_x = 32,
       .ranks_y = 32,
       .steps = 24,
       .lb_period = 5},
      {.name = "hotspot-adaptive-1024",
       .kind = Kind::scenario,
       .ranks = 1024,
       .phases = 512,
       .instances = 2},
  };
  return all;
}

Workload const* find_workload(std::string_view name) {
  for (Workload const& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

pic::PicConfig pic_config(int ranks_x, int ranks_y, int steps, int lb_period,
                          std::uint64_t seed) {
  pic::PicConfig cfg;
  cfg.mesh.ranks_x = ranks_x;
  cfg.mesh.ranks_y = ranks_y;
  cfg.mesh.colors_x = 6;
  cfg.mesh.colors_y = 4;
  cfg.mode = pic::ExecutionMode::amt;
  cfg.strategy = "tempered";
  cfg.steps = steps;
  cfg.first_lb_step = 2;
  cfg.lb_period = lb_period;
  cfg.seed = seed;
  cfg.runtime_threads = 1;
  cfg.bdot.total_steps = steps;
  cfg.lb_params = lb::LbParams::tempered();
  cfg.lb_params.num_trials = 10;
  cfg.lb_params.num_iterations = 8;
  cfg.lb_params.fanout = 6;
  cfg.lb_params.rounds = 5;
  cfg.lb_params.seed = derive_seed(seed, workload::kLbSeedStreamTag);
  return cfg;
}

pic::PicConfig pic_config(Workload const& w, std::uint64_t seed) {
  return pic_config(w.ranks_x, w.ranks_y, w.steps, w.lb_period, seed);
}

workload::SimConfig scenario_config(RankId ranks, std::size_t phases,
                                    std::uint64_t seed) {
  workload::SimConfig cfg;
  cfg.scenario.name = "hotspot";
  cfg.scenario.num_ranks = ranks;
  cfg.scenario.phases = phases;
  cfg.scenario.seed = seed;
  cfg.policy = "costbenefit";
  cfg.strategy = "tempered";
  cfg.tasks_per_rank = 16;
  return cfg;
}

ScenarioRun scenario_run(Workload const& w, std::uint64_t seed) {
  ScenarioRun run;
  for (std::uint64_t i = 0; i < w.instances; ++i) {
    run.push_back(scenario_config(w.ranks, w.phases, derive_seed(seed, i)));
  }
  return run;
}

SimOutcome to_outcome(pic::RunResult const& result) {
  SimOutcome out;
  out.t_total = result.totals.t_total;
  out.t_work = result.totals.t_particle + result.totals.t_nonparticle;
  out.t_lb = result.totals.t_lb;
  double imbalance_sum = 0.0;
  for (pic::StepMetrics const& s : result.steps) {
    imbalance_sum += s.imbalance;
    out.decisions += s.t_lb > 0.0 ? 'I' : 'S';
  }
  out.mean_imbalance =
      imbalance_sum / static_cast<double>(result.steps.size());
  out.migrations = result.totals.migrations;
  out.migration_bytes = result.totals.migration_bytes;
  out.exchanged = result.totals.exchanged;
  out.remote_exchanged = result.totals.remote_exchanged;
  out.particles = result.steps.back().total_particles;
  return out;
}

SimOutcome to_outcome(workload::SimResult const& result) {
  SimOutcome out;
  out.t_total = result.total_seconds();
  out.t_work = result.work_seconds;
  out.t_lb = result.lb_seconds;
  out.mean_imbalance = result.mean_imbalance;
  out.forecast_error = result.mean_forecast_error;
  out.decisions = result.decisions;
  return out;
}

SimOutcome combine(std::vector<SimOutcome> const& instances) {
  SimOutcome out;
  for (SimOutcome const& part : instances) {
    out.t_total += part.t_total;
    out.t_work += part.t_work;
    out.t_lb += part.t_lb;
    out.mean_imbalance += part.mean_imbalance;
    out.forecast_error += part.forecast_error;
    out.decisions += part.decisions;
  }
  auto const n = static_cast<double>(instances.size());
  out.mean_imbalance /= n;
  out.forecast_error /= n;
  return out;
}

std::size_t injected_particles(pic::PicConfig const& config) {
  pic::BDotScenario const scenario{config.bdot};
  std::size_t total = 0;
  for (int step = 0; step < config.steps; ++step) {
    total += static_cast<std::size_t>(scenario.count(step));
  }
  return total;
}

PublicRun run_public(pic::PicConfig const& config) {
  PublicRun out;
  pic::PicApp app{config};
  auto const start = Clock::now();
  auto const result = app.run();
  out.wall_s = seconds_since(start);
  out.sim = to_outcome(result);

  for (auto const& report : app.lb_manager()->history()) {
    ++out.lb_invocations;
    out.aborted_rounds += report.aborted_rounds;
  }
  std::size_t const injected = injected_particles(config);
  if (app.total_particles() != injected || out.sim.particles != injected) {
    out.problems.push_back("pic: particles not conserved");
  }
  // Every color has one valid owner holding its payload (particles_in
  // finds the chunk on the owner's rank).
  std::size_t in_colors = 0;
  for (pic::ColorId c = 0; c < app.mesh().num_colors(); ++c) {
    RankId const owner = app.owner_of(c);
    if (owner < 0 || owner >= app.mesh().num_ranks()) {
      out.problems.push_back("pic: color without a valid owner");
      break;
    }
    in_colors += app.particles_in(c);
  }
  if (in_colors != injected) {
    out.problems.push_back("pic: particles outside the colors' owners");
  }
  return out;
}

PublicRun run_public(ScenarioRun const& instances) {
  PublicRun out;
  std::vector<SimOutcome> parts;
  for (workload::SimConfig const& config : instances) {
    auto const start = Clock::now();
    auto const result = workload::run_policy_sim(config);
    out.wall_s += seconds_since(start);
    parts.push_back(to_outcome(result));
    out.lb_invocations += result.invocations;
    if (result.decisions.size() != config.scenario.phases ||
        static_cast<std::size_t>(std::count(result.decisions.begin(),
                                            result.decisions.end(), 'I')) !=
            result.invocations) {
      out.problems.push_back(
          "scenario: decision string disagrees with counts");
    }
  }
  out.sim = combine(parts);
  return out;
}

namespace {

double time_scenario_setup(workload::SimConfig const& config) {
  auto const start = Clock::now();
  auto const policy = policy::make_policy(config.policy);
  auto const scenario = workload::make_scenario(config.scenario);
  workload::ScenarioWorkload const work{*scenario, config.tasks_per_rank,
                                        config.scenario.seed,
                                        config.base_load};
  rt::RuntimeConfig rt_config;
  rt_config.num_ranks = scenario->num_ranks();
  rt_config.seed = config.scenario.seed;
  rt::Runtime runtime{rt_config};
  lb::LbManager const manager{runtime, config.strategy,
                              lb::LbParams::tempered()};
  rt::ObjectStore store{scenario->num_ranks()};
  work.populate(store, config.payload_bytes);
  return seconds_since(start);
}

} // namespace

double time_setup(Workload const& w, std::uint64_t seed) {
  if (w.kind == Kind::pic) {
    auto const config = pic_config(w, seed);
    auto const start = Clock::now();
    pic::PicApp const app{config};
    return seconds_since(start);
  }
  double total = 0.0;
  for (workload::SimConfig const& config : scenario_run(w, seed)) {
    total += time_scenario_setup(config);
  }
  return total;
}

} // namespace perfbench
