#include "lb/strategy/lb_manager.hpp"

#include <cmath>
#include <optional>

#include "obs/causal.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace tlb::lb {

namespace {

/// Every task load must be finite and non-negative, as
/// PhaseInstrumentation::record requires of what it measures: a
/// StrategyInput built directly gets the same check before any policy or
/// strategy computes an imbalance from it.
void expect_valid_loads(StrategyInput const& input) {
  for (auto const& tasks : input.tasks) {
    for (TaskEntry const& task : tasks) {
      TLB_EXPECTS(std::isfinite(task.load) && task.load >= 0.0);
    }
  }
}

} // namespace

LbManager::LbManager(rt::Runtime& rt, std::string_view strategy,
                     LbParams params)
    : rt_{&rt}, strategy_{make_strategy(strategy)}, params_{params} {}

std::string_view LbManager::strategy_name() const {
  return strategy_->name();
}

StrategyInput
LbManager::gather_input(rt::PhaseInstrumentation const& instrumentation,
                        RankId num_ranks) {
  StrategyInput input;
  input.tasks.reserve(static_cast<std::size_t>(num_ranks));
  for (RankId r = 0; r < num_ranks; ++r) {
    input.tasks.push_back(instrumentation.previous_tasks(r));
  }
  return input;
}

StrategyResult LbManager::decide(StrategyInput const& input) {
  return strategy_->balance(*rt_, input, params_);
}

LbManager::Report LbManager::invoke(StrategyInput const& input,
                                    rt::ObjectStore& store) {
  expect_valid_loads(input);
  return invoke_internal(input, store, nullptr, {});
}

LbManager::Report LbManager::invoke_internal(StrategyInput const& input,
                                             rt::ObjectStore& store,
                                             policy::Decision const* decision,
                                             std::string_view policy_name) {
  Report report;
  report.phase = next_phase_;
  auto const loads = input.rank_loads();
  report.imbalance_before = imbalance(loads);

  // Telemetry on: hand the strategy a report builder for this invocation,
  // and open the phase on the causal log so root messages posted during
  // the invocation carry the step they belong to.
  std::optional<obs::LbReportBuilder> builder;
  std::int64_t wall_start = 0;
  rt::NetworkStats fault_base;
  if (obs::enabled()) {
    obs::CausalLog::instance().set_step(
        static_cast<std::uint32_t>(report.phase));
    fault_base = rt_->stats();
    wall_start = obs::Tracer::instance().now_us();
    builder.emplace();
    // Baseline metadata for strategies that ignore the builder; the
    // gossip strategies overwrite these with their own view.
    builder->set_strategy(std::string{strategy_->name()});
    builder->set_threshold(params_.threshold);
    builder->set_initial_imbalance(report.imbalance_before);
    strategy_->set_introspection(&*builder);
  }

  StrategyResult result = strategy_->balance(*rt_, input, params_);
  report.imbalance_after = result.achieved_imbalance;
  report.cost = result.cost;
  report.migration_payload_bytes = store.migrate(*rt_, result.migrations);
  report.aborted_rounds = result.aborted_rounds;
  report.new_rank_loads = result.new_rank_loads;

  if (builder) {
    strategy_->set_introspection(nullptr);
    builder->set_final(report.imbalance_after, result.cost.migration_count,
                       report.migration_payload_bytes);
    introspection_.push_back(builder->finish(report.phase));

    // Feed the phase timeline (the flight recorder's black box).
    auto const summary = summarize(loads);
    auto const faults = rt_->stats();
    auto fault_delta = [&](auto member) {
      std::uint64_t delta = 0;
      for (std::size_t k = 0; k < rt::num_message_kinds; ++k) {
        delta += (faults.*member)[k] - (fault_base.*member)[k];
      }
      return delta;
    };
    obs::PhaseSample sample;
    sample.phase = report.phase;
    sample.strategy = std::string{strategy_->name()};
    sample.load_min = summary.min;
    sample.load_max = summary.max;
    sample.load_avg = summary.mean;
    sample.load_stddev = summary.stddev;
    sample.imbalance_before = report.imbalance_before;
    sample.imbalance_after = report.imbalance_after;
    sample.migrations = result.cost.migration_count;
    sample.migration_bytes = report.migration_payload_bytes;
    sample.lb_messages = result.cost.lb_messages;
    sample.lb_bytes = result.cost.lb_bytes;
    sample.lb_wall_us = obs::Tracer::instance().now_us() - wall_start;
    sample.aborted_rounds = result.aborted_rounds;
    sample.faults_dropped = fault_delta(&rt::NetworkStats::kind_dropped);
    sample.faults_delayed = fault_delta(&rt::NetworkStats::kind_delayed);
    sample.faults_duplicated = fault_delta(&rt::NetworkStats::kind_duplicated);
    sample.faults_retried = fault_delta(&rt::NetworkStats::kind_retried);
    if (decision != nullptr) {
      sample.policy = std::string{policy_name};
      sample.decision_reason = std::string{decision->reason};
      sample.forecast_imbalance = decision->forecast_imbalance;
      sample.forecast_error = decision->forecast_error;
      sample.predicted_gain = decision->predicted_gain;
      sample.predicted_cost = decision->predicted_cost;
    }
    obs::snapshot_loads(sample, loads,
                        obs::PhaseTimeline::instance().snapshot_top_k());
    obs::PhaseTimeline::instance().record(std::move(sample));
  }
  history_.push_back(report);
  ++next_phase_;
  return report;
}

LbManager::PolicyOutcome
LbManager::invoke_if_beneficial(StrategyInput const& input,
                                rt::ObjectStore& store,
                                policy::TriggerPolicy& policy,
                                LbCostModel const& cost_model) {
  expect_valid_loads(input);
  PolicyOutcome out;
  auto const loads = input.rank_loads();
  out.decision = policy.decide(next_phase_, loads);
  if (out.decision.invoke) {
    out.invoked = true;
    out.report = invoke_internal(input, store, &out.decision, policy.name());
    out.lb_cost_seconds = cost_model.cost(out.report.cost.lb_messages,
                                          out.report.cost.lb_bytes,
                                          out.report.migration_payload_bytes);
    policy.record_outcome(true, out.lb_cost_seconds,
                          out.report.new_rank_loads);
    return out;
  }

  // Skip: nothing runs, but the phase still happened — record it.
  out.report.phase = next_phase_;
  out.report.imbalance_before = imbalance(loads);
  out.report.imbalance_after = out.report.imbalance_before;
  policy.record_outcome(false, 0.0, {});
  if (obs::enabled()) {
    auto const summary = summarize(loads);
    obs::PhaseSample sample;
    sample.phase = out.report.phase;
    sample.strategy = std::string{strategy_->name()};
    sample.load_min = summary.min;
    sample.load_max = summary.max;
    sample.load_avg = summary.mean;
    sample.load_stddev = summary.stddev;
    sample.imbalance_before = out.report.imbalance_before;
    sample.imbalance_after = out.report.imbalance_after;
    sample.lb_invoked = false;
    sample.policy = std::string{policy.name()};
    sample.decision_reason = std::string{out.decision.reason};
    sample.forecast_imbalance = out.decision.forecast_imbalance;
    sample.forecast_error = out.decision.forecast_error;
    sample.predicted_gain = out.decision.predicted_gain;
    sample.predicted_cost = out.decision.predicted_cost;
    obs::snapshot_loads(sample, loads,
                        obs::PhaseTimeline::instance().snapshot_top_k());
    obs::PhaseTimeline::instance().record(std::move(sample));
  }
  ++next_phase_;
  return out;
}

void LbManager::write_introspection_json(std::ostream& os) const {
  obs::write_lb_reports_json(os, introspection_);
}

} // namespace tlb::lb
