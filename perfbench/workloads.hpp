#pragma once

/// \file workloads.hpp
/// The benchmark's workloads and the untraced runs through the library's
/// public entry points (pic::PicApp construction + run(),
/// workload::run_policy_sim). The seed is the only input a run takes; the
/// library receives nothing but the config generated from it.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pic/app.hpp"
#include "workload/policy_sim.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class Kind { pic, scenario };

/// One named workload. Pic workloads use `ranks_x/ranks_y/steps/lb_period`,
/// scenario workloads `ranks/phases/instances`.
struct Workload {
  std::string_view name;
  Kind kind;
  int ranks_x = 0;
  int ranks_y = 0;
  int steps = 0;
  int lb_period = 0;
  tlb::RankId ranks = 0;
  std::size_t phases = 0;
  /// Independent scenario instances per run, their seeds derived from the
  /// run's seed. One instance's simulated totals swing with the seed (the
  /// trigger's invocation count does), so a run sums several.
  std::uint64_t instances = 1;
};

/// The benchmark's workloads (README.md gives the reason for each).
[[nodiscard]] std::vector<Workload> const& workloads();
[[nodiscard]] Workload const* find_workload(std::string_view name);

/// AMT + TemperedLB over the B-Dot scenario, the bench/pic_common.hpp
/// defaults (10 trials x 8 iterations, f=6, k=5), 24 colors per rank, LB at
/// step 2 and then every `lb_period` steps, sequential driver.
[[nodiscard]] tlb::pic::PicConfig pic_config(int ranks_x, int ranks_y,
                                             int steps, int lb_period,
                                             std::uint64_t seed);
[[nodiscard]] tlb::pic::PicConfig pic_config(Workload const& w,
                                             std::uint64_t seed);

/// The drifting hotspot under the cost/benefit trigger and TemperedLB,
/// 16 tasks per rank.
[[nodiscard]] tlb::workload::SimConfig
scenario_config(tlb::RankId ranks, std::size_t phases, std::uint64_t seed);
/// One config per instance of a scenario workload.
using ScenarioRun = std::vector<tlb::workload::SimConfig>;
[[nodiscard]] ScenarioRun scenario_run(Workload const& w, std::uint64_t seed);

/// The simulated-clock outcome of one run: what the untraced run and the
/// traced mirror must agree on exactly.
struct SimOutcome {
  double t_total = 0.0;
  double t_work = 0.0; ///< pic: t_p + t_n; scenario: sum of phase makespans
  double t_lb = 0.0;
  double mean_imbalance = 0.0;
  double forecast_error = 0.0; ///< scenario only
  std::string decisions;       ///< one char per step/phase: 'I' or 'S'
  std::size_t migrations = 0;  ///< pic only
  std::size_t migration_bytes = 0;
  std::size_t exchanged = 0;
  std::size_t remote_exchanged = 0;
  std::size_t particles = 0;

  friend bool operator==(SimOutcome const&, SimOutcome const&) = default;
};

[[nodiscard]] SimOutcome to_outcome(tlb::pic::RunResult const& result);
[[nodiscard]] SimOutcome to_outcome(tlb::workload::SimResult const& result);
/// A scenario run's outcome from its instances' (times summed, means
/// averaged, decision strings concatenated).
[[nodiscard]] SimOutcome combine(std::vector<SimOutcome> const& instances);

/// Particles a pic run injects in total (sum of BDotScenario::count).
[[nodiscard]] std::size_t injected_particles(tlb::pic::PicConfig const& config);

/// One untraced run through the public entry point.
struct PublicRun {
  SimOutcome sim;
  double wall_s = 0.0; ///< pic: run(); scenario: run_policy_sim, all instances
  std::size_t lb_invocations = 0;
  std::size_t aborted_rounds = 0;
  std::vector<std::string> problems; ///< failed output checks
};

[[nodiscard]] PublicRun run_public(tlb::pic::PicConfig const& config);
[[nodiscard]] PublicRun run_public(ScenarioRun const& instances);

/// Host seconds to set the workload up without running it: PicApp
/// construction, or, per instance, scenario + runtime + LbManager + store +
/// populate as run_policy_sim does it.
[[nodiscard]] double time_setup(Workload const& w, std::uint64_t seed);

} // namespace perfbench
