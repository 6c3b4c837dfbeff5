#pragma once

/// \file lb_manager.hpp
/// Ties strategies to the runtime's instrumentation and object store: at a
/// phase boundary the manager reads the previous phase's measured task
/// loads, runs the configured strategy, executes the resulting migrations
/// through the object store, and records a report the application (or a
/// bench) can inspect.

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lb/strategy/strategy.hpp"
#include "obs/lb_report.hpp"
#include "policy/trigger_policy.hpp"
#include "runtime/object_store.hpp"
#include "runtime/phase.hpp"

namespace tlb::lb {

/// Converts an LB invocation's protocol/migration accounting into
/// simulated seconds: PicApp's t_lb, and the cost the trigger policies
/// weigh against forecast gains. Defaults mirror pic::WorkModel's
/// calibrated coefficients.
struct LbCostModel {
  double per_message = 2.0e-6;
  double per_byte = 5.0e-10;
  double per_migration_byte = 4.0e-9;
  /// Fixed per-invocation overhead (the synchronization/barrier cost of
  /// entering the balancer at all, independent of traffic).
  double fixed = 0.0;

  [[nodiscard]] double cost(std::size_t messages, std::size_t bytes,
                            std::size_t migration_bytes) const {
    return fixed + per_message * static_cast<double>(messages) +
           per_byte * static_cast<double>(bytes) +
           per_migration_byte * static_cast<double>(migration_bytes);
  }
};

class LbManager {
public:
  /// One LB invocation's outcome.
  struct Report {
    std::size_t phase = 0;
    double imbalance_before = 0.0;
    double imbalance_after = 0.0;
    StrategyCost cost;
    std::size_t migration_payload_bytes = 0;
    /// Protocol rounds abandoned by the quiescence budget valve.
    std::size_t aborted_rounds = 0;
    /// Expected per-rank loads after the migrations (what the strategy
    /// projected); the policy layer re-seeds its forecaster from these.
    std::vector<LoadType> new_rank_loads;
  };

  /// One adaptive-invocation step's outcome (invoke_if_beneficial).
  struct PolicyOutcome {
    /// On a skip this is a zero-cost report whose imbalance_after simply
    /// repeats imbalance_before (nothing ran).
    Report report;
    policy::Decision decision;
    bool invoked = false;
    /// Modeled LB cost fed back to the policy (0 on skip).
    double lb_cost_seconds = 0.0;
  };

  /// \param rt       Runtime the strategies communicate over.
  /// \param strategy Name accepted by make_strategy().
  /// \param params   Algorithm parameters (used by the gossip strategies).
  LbManager(rt::Runtime& rt, std::string_view strategy, LbParams params);

  [[nodiscard]] std::string_view strategy_name() const;
  [[nodiscard]] LbParams const& params() const { return params_; }

  /// Build a StrategyInput from the previous phase's measurements.
  [[nodiscard]] static StrategyInput
  gather_input(rt::PhaseInstrumentation const& instrumentation,
               RankId num_ranks);

  /// Run one LB invocation: decide migrations from `input` and execute
  /// them on `store` (moving payloads with runtime messages). Every task
  /// load in `input` must be finite and >= 0 (checked here and in
  /// invoke_if_beneficial).
  Report invoke(StrategyInput const& input, rt::ObjectStore& store);

  /// Adaptive invocation: ask `policy` whether the balancer should run
  /// this phase. On invoke, runs invoke() and feeds the measured cost
  /// (via `cost_model`) and projected post-LB loads back to the policy;
  /// on skip, records a skip PhaseSample into the timeline (telemetry
  /// permitting) and advances the phase counter so phase numbering stays
  /// aligned with the application's phases.
  PolicyOutcome invoke_if_beneficial(StrategyInput const& input,
                                     rt::ObjectStore& store,
                                     policy::TriggerPolicy& policy,
                                     LbCostModel const& cost_model = {});

  /// Decide migrations only (no object store); useful for analysis.
  [[nodiscard]] StrategyResult decide(StrategyInput const& input);

  [[nodiscard]] std::vector<Report> const& history() const {
    return history_;
  }

  /// Per-invocation introspection reports, collected by invoke() whenever
  /// telemetry is runtime-enabled (tlb::obs::enabled()); empty otherwise.
  [[nodiscard]] std::vector<obs::LbInvocationReport> const&
  introspection() const {
    return introspection_;
  }

  /// Dump the collected introspection reports as a JSON document
  /// ({"lb_reports": [...]}).
  void write_introspection_json(std::ostream& os) const;

private:
  Report invoke_internal(StrategyInput const& input, rt::ObjectStore& store,
                         policy::Decision const* decision,
                         std::string_view policy_name);

  rt::Runtime* rt_;
  std::unique_ptr<Strategy> strategy_;
  LbParams params_;
  std::vector<Report> history_;
  std::vector<obs::LbInvocationReport> introspection_;
  /// Phase number stamped on the next report/sample. Advanced by both
  /// invocations and policy skips, so it tracks application phases (it
  /// equals history_.size() only when no phase was ever skipped).
  std::size_t next_phase_ = 0;
};

} // namespace tlb::lb
