#pragma once

/// \file strategy.hpp
/// The load-balancing strategy interface. A strategy consumes the
/// instrumented task loads of the previous phase (one task list per rank)
/// and produces the migrations that re-map tasks for the next phase,
/// together with cost accounting for the timing model.

#include <memory>
#include <string_view>
#include <vector>

#include "lb/lb_types.hpp"
#include "obs/lb_report.hpp"
#include "runtime/runtime.hpp"
#include "support/types.hpp"

namespace tlb::lb {

/// Per-rank instrumented state handed to a strategy.
struct StrategyInput {
  /// tasks[r] — the measured tasks currently on rank r.
  std::vector<std::vector<TaskEntry>> tasks;

  [[nodiscard]] RankId num_ranks() const {
    return static_cast<RankId>(tasks.size());
  }
  /// Sum of task loads per rank.
  [[nodiscard]] std::vector<LoadType> rank_loads() const;
};

/// Cost accounting for the LB invocation itself (feeds t_lb).
struct StrategyCost {
  std::size_t lb_messages = 0; ///< protocol messages exchanged
  std::size_t lb_bytes = 0;    ///< protocol bytes exchanged
  std::size_t migration_count = 0;
  LoadType migrated_load = 0.0; ///< sum of loads of migrated tasks
};

struct StrategyResult {
  std::vector<Migration> migrations;
  /// Expected per-rank loads after applying the migrations.
  std::vector<LoadType> new_rank_loads;
  /// Expected imbalance I after the migrations.
  double achieved_imbalance = 0.0;
  /// LB rounds abandoned mid-flight (incomplete reduction, liveness
  /// timeout). Only non-zero under an active fault plane; an aborted
  /// round falls back to the last good placement (the best snapshot so
  /// far, or no migrations at all), never a partial one.
  std::size_t aborted_rounds = 0;
  StrategyCost cost;
};

/// Abstract strategy. Implementations must be deterministic given
/// (input, params, runtime seed).
class Strategy {
public:
  virtual ~Strategy() = default;
  Strategy() = default;
  Strategy(Strategy const&) = delete;
  Strategy& operator=(Strategy const&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Decide migrations. The runtime is used for protocol communication
  /// (gossip, reductions); distributed strategies' traffic is measured
  /// through it.
  [[nodiscard]] virtual StrategyResult balance(rt::Runtime& rt,
                                               StrategyInput const& input,
                                               LbParams const& params) = 0;

  /// Attach (or detach, with nullptr) a telemetry report builder for the
  /// next balance() call. Optional: strategies that support introspection
  /// feed it through the builder's on_* callbacks; the rest ignore it.
  void set_introspection(obs::LbReportBuilder* builder) {
    introspection_ = builder;
  }

protected:
  obs::LbReportBuilder* introspection_ = nullptr;
};

/// Factory over the paper's four balancers (Fig. 2/3):
///   "tempered"  — this paper's TemperedLB (gossip, relaxed criterion)
///   "grapevine" — the original GrapevineLB configuration
///   "greedy"    — centralized LPT (GreedyLB)
///   "hier"      — hierarchical two-level balancer (HierLB)
/// TemperedLB with a build-once CMF (E12's ablation) is a parameter, not a
/// name: set LbParams::refresh = CmfRefresh::build_once.
/// Throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<Strategy> make_strategy(std::string_view name);

/// Names accepted by make_strategy.
[[nodiscard]] std::vector<std::string_view> strategy_names();

/// Apply migrations to a copy of the input's per-rank loads and return the
/// resulting load vector (shared helper for strategies).
[[nodiscard]] std::vector<LoadType>
project_loads(StrategyInput const& input,
              std::vector<Migration> const& migrations);

} // namespace tlb::lb
