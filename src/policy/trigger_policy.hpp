#pragma once

/// \file trigger_policy.hpp
/// The decision layer between observation and action: should the LB run
/// after this phase? A TriggerPolicy sees each phase's measured per-rank
/// loads and decides invoke-or-skip, with outcome feedback (did the LB
/// run, what did it measurably cost) closing the loop.
/// LbManager::invoke_if_beneficial drives one and records every
/// decision — including skips — into the phase timeline. It is the only
/// way PicApp and run_policy_sim invoke the balancer.
///
/// Policies (make_policy specs in parentheses):
///   always       ("always")          — invoke every phase
///   never        ("never")           — never invoke (the no-LB baseline)
///   periodic     ("every-4")         — phase `first`, then every multiple
///     of a period, plus an optional λ trigger with a cooldown. PicApp's
///     schedule (step 2, then every 100th, §VI) and E13's imbalance
///     trigger are this policy; the spec "every-<k>" is first = 0.
///   λ-threshold  ("threshold-0.5")   — invoke when forecast λ̂ exceeds λ*
///   cost/benefit ("costbenefit")     — invoke only when the accumulated
///     forecast time-saved since the last invocation exceeds the EMA of
///     the measured LB cost (the criterion shape of Boulmier et al.,
///     arXiv:2104.01688), forecasting by persistence
///
/// All policies are pure state machines over their inputs: deterministic,
/// no randomness, no clocks — a decision sequence is reproducible from
/// (policy spec, load series) alone, which the 64-rank golden test pins.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "policy/forecaster.hpp"

namespace tlb::policy {

/// One invoke-or-skip decision with the evidence it was based on (the
/// phase timeline records these verbatim).
struct Decision {
  bool invoke = false;
  /// Static-storage human-readable cause ("forecast gain exceeds cost",
  /// "below lambda threshold", ...).
  std::string_view reason;
  /// Forecast next-phase imbalance λ̂ (0 when the policy does not forecast).
  double forecast_imbalance = 0.0;
  /// Trailing forecast-error EMA of the policy's forecaster (0 when n/a).
  double forecast_error = 0.0;
  /// Accumulated forecast time-saved if the LB runs now (seconds of
  /// simulated work; 0 when the policy does not estimate it).
  double predicted_gain = 0.0;
  /// The cost the gain was weighed against (EMA of measured LB cost).
  double predicted_cost = 0.0;
};

class TriggerPolicy {
public:
  TriggerPolicy() = default;
  virtual ~TriggerPolicy() = default;
  TriggerPolicy(TriggerPolicy const&) = delete;
  TriggerPolicy& operator=(TriggerPolicy const&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Decide whether the LB should run now, given the measured per-rank
  /// loads of the phase that just completed. Called exactly once per
  /// phase, in phase order.
  [[nodiscard]] virtual Decision decide(std::uint64_t phase,
                                        std::span<double const> loads) = 0;

  /// Outcome feedback after the decision was acted on: whether the LB
  /// actually ran, its measured cost in (simulated) seconds, and the
  /// projected post-LB per-rank loads (empty when skipped or unknown).
  virtual void record_outcome(bool invoked, double lb_cost_seconds,
                              std::span<double const> loads_after);
};

/// Invoke every phase.
class AlwaysPolicy final : public TriggerPolicy {
public:
  [[nodiscard]] std::string_view name() const override { return "always"; }
  [[nodiscard]] Decision decide(std::uint64_t phase,
                                std::span<double const> loads) override;
};

/// Never invoke.
class NeverPolicy final : public TriggerPolicy {
public:
  [[nodiscard]] std::string_view name() const override { return "never"; }
  [[nodiscard]] Decision decide(std::uint64_t phase,
                                std::span<double const> loads) override;
};

/// Invoke at phase `first` and at every later multiple of `period`. With
/// `trigger` > 0, also invoke at a later phase whose measured λ exceeds
/// `trigger` (strictly), once `cooldown` phases have passed since the last
/// invocation, periodic ones included. The name encodes the parameters.
class PeriodicPolicy final : public TriggerPolicy {
public:
  PeriodicPolicy(std::uint64_t first, std::uint64_t period,
                 double trigger = 0.0, std::uint64_t cooldown = 0);
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] Decision decide(std::uint64_t phase,
                                std::span<double const> loads) override;

private:
  std::uint64_t first_;
  std::uint64_t period_;
  double trigger_;
  std::uint64_t cooldown_;
  std::optional<std::uint64_t> last_invoked_;
  std::string name_;
};

/// Invoke when the forecast imbalance λ̂ exceeds a fixed threshold. Uses a
/// persistence forecaster, so λ̂ equals the measured λ of the completed
/// phase — the classical reactive trigger.
class ThresholdPolicy final : public TriggerPolicy {
public:
  explicit ThresholdPolicy(double lambda_threshold);
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] Decision decide(std::uint64_t phase,
                                std::span<double const> loads) override;

private:
  double threshold_;
  Forecaster forecaster_;
  std::string name_;
};

/// The cost/benefit trigger: accumulate the forecast per-phase time-saved
/// (max̂ − avĝ, the seconds the slowest rank would shed under perfect
/// balance) across skipped phases, and invoke once that accumulated gain
/// exceeds the EMA of the measured LB invocation cost. Before any cost
/// has been measured the policy invokes on the first imbalanced phase to
/// obtain one. A λ̂ floor keeps it quiet on balanced phases where the
/// forecast gain is noise.
class CostBenefitPolicy final : public TriggerPolicy {
public:
  /// λ̂ below this never triggers (noise floor). It is set where a
  /// rebalance bought at λ̂ ≈ floor cannot repay a typical invocation
  /// cost before the workload moves again — low-λ̂ phases (e.g. a seasonal
  /// swing's zero crossings) are left alone.
  static constexpr double kLambdaFloor = 0.1;
  /// Weight of the newest measured cost in the cost EMA.
  static constexpr double kCostEmaAlpha = 0.3;

  [[nodiscard]] std::string_view name() const override {
    return "costbenefit";
  }
  [[nodiscard]] Decision decide(std::uint64_t phase,
                                std::span<double const> loads) override;
  void record_outcome(bool invoked, double lb_cost_seconds,
                      std::span<double const> loads_after) override;

  /// EMA of measured LB cost (seconds); negative until first measurement.
  [[nodiscard]] double cost_ema() const { return cost_ema_; }
  [[nodiscard]] double accumulated_gain() const { return accumulated_gain_; }

private:
  Forecaster forecaster_;
  double accumulated_gain_ = 0.0;
  double cost_ema_ = -1.0; ///< sentinel: no cost measured yet
};

/// Parse a policy spec: "always", "never", "every-<k>" (k an integer
/// >= 1), "threshold-<λ>" (λ a finite number >= 0) or "costbenefit".
/// Throws std::invalid_argument on anything else, including a malformed
/// or out-of-range parameter.
[[nodiscard]] std::unique_ptr<TriggerPolicy> make_policy(
    std::string_view spec);

/// Representative specs (one per policy family) for sweeps and --help.
[[nodiscard]] std::vector<std::string_view> policy_specs();

} // namespace tlb::policy
