#pragma once

/// \file app.hpp
/// The EMPIRE-surrogate mini-app driver: a timestep loop of
///   inject -> field solve (t_n) -> particle update (t_p) -> exchange ->
///   [load balance when the trigger policy says so] (t_lb)
/// over the colored overdecomposition, producing per-step metrics that
/// regenerate the paper's Figs. 2-4. Times are simulated seconds derived
/// from the WorkModel; the particle motion itself is real.

#include <string>
#include <vector>

#include "lb/strategy/lb_manager.hpp"
#include "pic/bdot.hpp"
#include "pic/color_chunk.hpp"
#include "pic/mesh.hpp"
#include "runtime/object_store.hpp"
#include "runtime/phase.hpp"
#include "runtime/runtime.hpp"

namespace tlb::pic {

/// SPMD runs the pure-MPI configuration: colors pinned to their home
/// ranks, no tasking overhead, no LB. AMT runs the overdecomposed tasking
/// configuration with its overhead and optional balancing.
enum class ExecutionMode { spmd, amt };

/// Simulated-time cost coefficients. Defaults are calibrated so a default
/// 64-rank run reproduces the paper's time-breakdown *shape* (Fig. 3):
/// t_p ~ 2-3x t_n for SPMD, ~29% AMT overhead on particle work, ~8% on
/// non-particle work, and t_lb two orders below t_total.
struct WorkModel {
  double alpha = 1.0e-4; ///< seconds per particle per step
  double beta = 1.0e-4;  ///< seconds per cell, particle phase (deposit/sort)
  double gamma = 1.5e-3; ///< seconds per cell, field solve
  double amt_particle_overhead = 0.29;
  double amt_nonparticle_overhead = 0.08;
  double lb_per_message = 2.0e-6;    ///< protocol message cost
  double lb_per_byte = 5.0e-10;      ///< protocol byte cost
  double migration_per_byte = 4.0e-9;///< payload movement cost
};

struct PicConfig {
  MeshConfig mesh;
  BDotConfig bdot;
  WorkModel work;
  ExecutionMode mode = ExecutionMode::amt;
  /// Strategy name for make_strategy(), or "none" to disable balancing.
  std::string strategy = "tempered";
  lb::LbParams lb_params = lb::LbParams::tempered();
  int steps = 600;
  /// The default schedule is policy::PeriodicPolicy{first_lb_step,
  /// lb_period, lb_trigger_imbalance, lb_trigger_cooldown}.
  int first_lb_step = 2;  ///< paper: balance at the 2nd timestep...
  int lb_period = 100;    ///< ...then every 100th
  /// Adaptive trigger (extension, motivated by §IV-A's frequency/
  /// scalability tradeoff): when > 0, additionally invoke the LB after any
  /// step that measured I above this threshold. 0 keeps the paper's
  /// purely periodic schedule.
  double lb_trigger_imbalance = 0.0;
  /// Minimum steps between adaptive-trigger invocations (hysteresis so a
  /// persistent residual imbalance cannot thrash the balancer).
  int lb_trigger_cooldown = 10;
  /// Trigger-policy spec (policy::make_policy: "always", "every-<k>",
  /// "threshold-<λ>", "costbenefit", ...). When non-empty it replaces the
  /// periodic schedule and imbalance trigger entirely.
  std::string policy;
  std::uint64_t seed = 0xE3;
  int runtime_threads = 1;
};

/// Per-timestep observables (the series plotted in Fig. 4).
struct StepMetrics {
  int step = 0;
  double t_particle = 0.0;
  double t_nonparticle = 0.0;
  double t_lb = 0.0;
  double t_step = 0.0;
  double max_rank_load = 0.0;   ///< Fig. 4b "Max"
  double min_rank_load = 0.0;   ///< Fig. 4b "Min"
  double avg_rank_load = 0.0;
  double max_task_load = 0.0;   ///< for Fig. 4b's lower bound
  double imbalance = 0.0;       ///< Fig. 4c
  std::size_t total_particles = 0;
  std::size_t migrations = 0;   ///< migrations executed this step
  /// Quality of the principle of persistence (§III-B) at this step:
  /// sum |w_t(c) − w_{t−1}(c)| / sum w_t(c) over colors — 0 means the
  /// previous phase predicted this phase perfectly. The LB acts on
  /// previous-phase loads, so its efficacy degrades as this rises.
  double persistence_error = 0.0;
  /// Particles that crossed a color boundary this step...
  std::size_t exchanged = 0;
  /// ...of which this many crossed a *rank* boundary — the communication
  /// locality the paper's future work wants the balancer to preserve
  /// (§V-E2: "lost communication locality leading to increased data
  /// movement").
  std::size_t remote_exchanged = 0;
};

/// Aggregates over a run (the Fig. 2 bars / Fig. 3 table row).
struct RunTotals {
  double t_particle = 0.0;
  double t_nonparticle = 0.0;
  double t_lb = 0.0;
  double t_total = 0.0;
  std::size_t migrations = 0;
  std::size_t migration_bytes = 0;
  std::size_t exchanged = 0;
  std::size_t remote_exchanged = 0;
};

struct RunResult {
  std::vector<StepMetrics> steps;
  RunTotals totals;
};

class PicApp {
public:
  explicit PicApp(PicConfig config);

  /// Execute the full timestep loop.
  [[nodiscard]] RunResult run();

  [[nodiscard]] Mesh const& mesh() const { return mesh_; }
  [[nodiscard]] PicConfig const& config() const { return config_; }

  /// Current owner rank of a color (home rank in SPMD mode).
  [[nodiscard]] RankId owner_of(ColorId color) const;

  /// Particles currently inside a color (test/diagnostic access).
  [[nodiscard]] std::size_t particles_in(ColorId color) const;
  [[nodiscard]] std::size_t total_particles() const;

  /// Telemetry access: the underlying runtime (for publish_metrics) and
  /// the LB manager's introspection reports (null when strategy=none or
  /// in SPMD mode).
  [[nodiscard]] rt::Runtime const& runtime() const { return runtime_; }
  [[nodiscard]] lb::LbManager const* lb_manager() const {
    return lb_manager_.get();
  }

private:
  void inject(int step);
  /// Push particles per color, measure work, fill per-rank loads; returns
  /// the max per-task (color) load.
  double particle_phase(std::vector<double>& rank_work);
  /// Rebin particles to the colors owning their new positions; records
  /// total and cross-rank exchange counts into `metrics`.
  void exchange(StepMetrics& metrics);
  [[nodiscard]] ColorChunk& chunk(ColorId color);
  [[nodiscard]] ColorChunk const& chunk(ColorId color) const;

  PicConfig config_;
  Mesh mesh_;
  rt::Runtime runtime_;
  rt::ObjectStore store_;
  rt::PhaseInstrumentation instrumentation_;
  std::unique_ptr<lb::LbManager> lb_manager_; ///< null when not balancing
  /// Decides every step's invoke-or-skip; null exactly when lb_manager_ is.
  std::unique_ptr<policy::TriggerPolicy> trigger_policy_;
  BDotScenario scenario_;
  Rng rng_;
  /// Previous step's per-color work, for the persistence metric.
  std::vector<double> prev_color_work_;
};

} // namespace tlb::pic
