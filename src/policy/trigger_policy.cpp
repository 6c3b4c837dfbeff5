#include "policy/trigger_policy.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "support/assert.hpp"
#include "support/stats.hpp"

namespace tlb::policy {

namespace {

/// Parse everything after `prefix` as one T. Specs come from command
/// lines and configs, so anything but a whole in-range number (empty,
/// trailing junk, a fraction or exponent where T is an integer) throws.
template <typename T>
[[nodiscard]] T parse_suffix(std::string_view spec, std::string_view prefix) {
  auto const suffix = spec.substr(prefix.size());
  T value{};
  auto const [ptr, ec] =
      std::from_chars(suffix.data(), suffix.data() + suffix.size(), value);
  if (ec != std::errc{} || ptr != suffix.data() + suffix.size()) {
    throw std::invalid_argument("bad policy parameter in spec: " +
                                std::string{spec});
  }
  return value;
}

/// A policy parameter in a name: the first four characters of its decimal
/// form ("0.50", "12.5").
[[nodiscard]] std::string short_number(double value) {
  return std::to_string(value).substr(0, 4);
}

} // namespace

void TriggerPolicy::record_outcome(bool /*invoked*/,
                                   double /*lb_cost_seconds*/,
                                   std::span<double const> /*loads_after*/) {}

// ---------------------------------------------------------------------
// Always / Never
// ---------------------------------------------------------------------

Decision AlwaysPolicy::decide(std::uint64_t /*phase*/,
                              std::span<double const> loads) {
  Decision d;
  d.invoke = true;
  d.reason = "unconditional";
  d.forecast_imbalance = imbalance(loads);
  return d;
}

Decision NeverPolicy::decide(std::uint64_t /*phase*/,
                             std::span<double const> loads) {
  Decision d;
  d.invoke = false;
  d.reason = "disabled";
  d.forecast_imbalance = imbalance(loads);
  return d;
}

// ---------------------------------------------------------------------
// Periodic
// ---------------------------------------------------------------------

PeriodicPolicy::PeriodicPolicy(std::uint64_t first, std::uint64_t period,
                               double trigger, std::uint64_t cooldown)
    : first_{first}, period_{period}, trigger_{trigger}, cooldown_{cooldown},
      name_{"every-" + std::to_string(period)} {
  TLB_EXPECTS(period >= 1);
  TLB_EXPECTS(trigger >= 0.0);
  if (first > 0) {
    name_ += "-from-" + std::to_string(first);
  }
  if (trigger > 0.0) {
    name_ += "-trigger-" + short_number(trigger) + "-cooldown-" +
             std::to_string(cooldown);
  }
}

Decision PeriodicPolicy::decide(std::uint64_t phase,
                                std::span<double const> loads) {
  Decision d;
  d.forecast_imbalance = imbalance(loads);
  if (phase == first_) {
    d.invoke = true;
    d.reason = "first phase";
  } else if (phase > first_ && phase % period_ == 0) {
    d.invoke = true;
    d.reason = "period elapsed";
  } else if (trigger_ > 0.0 && phase > first_ &&
             d.forecast_imbalance > trigger_ &&
             (!last_invoked_ || phase - *last_invoked_ >= cooldown_)) {
    // React to measured imbalance between periodic invocations, with a
    // cooldown so a residual imbalance floor cannot thrash the balancer.
    d.invoke = true;
    d.reason = "lambda above trigger";
  } else {
    d.reason = "inside period";
  }
  if (d.invoke) {
    last_invoked_ = phase;
  }
  return d;
}

// ---------------------------------------------------------------------
// λ-threshold
// ---------------------------------------------------------------------

ThresholdPolicy::ThresholdPolicy(double lambda_threshold)
    : threshold_{lambda_threshold},
      name_{"threshold-" + short_number(lambda_threshold)} {
  TLB_EXPECTS(lambda_threshold >= 0.0);
}

Decision ThresholdPolicy::decide(std::uint64_t /*phase*/,
                                 std::span<double const> loads) {
  forecaster_.observe(loads);
  auto const forecast = forecaster_.predict();
  Decision d;
  d.forecast_imbalance = forecast.imbalance;
  d.forecast_error = forecaster_.error_ema();
  d.invoke = forecast.imbalance > threshold_;
  d.reason = d.invoke ? "lambda above threshold" : "lambda below threshold";
  return d;
}

// ---------------------------------------------------------------------
// Cost/benefit
// ---------------------------------------------------------------------

Decision CostBenefitPolicy::decide(std::uint64_t /*phase*/,
                                   std::span<double const> loads) {
  forecaster_.observe(loads);
  auto const forecast = forecaster_.predict();

  Decision d;
  d.forecast_imbalance = forecast.imbalance;
  d.forecast_error = forecaster_.error_ema();
  d.predicted_cost = std::max(cost_ema_, 0.0);

  // Seconds the slowest rank sheds next phase under perfect balance — the
  // per-phase benefit of invoking now, by the persistence principle.
  double const gain_next =
      std::max(0.0, forecast.load_max - forecast.load_avg);

  if (forecast.imbalance < kLambdaFloor) {
    // Balanced (or noise-level) forecast: nothing to gain. The
    // accumulator is intentionally left alone — a paused drift resumes
    // where it left off.
    d.reason = "forecast balanced";
    d.predicted_gain = accumulated_gain_;
    return d;
  }

  accumulated_gain_ += gain_next;
  d.predicted_gain = accumulated_gain_;

  if (cost_ema_ < 0.0) {
    // No cost measurement yet: invoke once to obtain one (the forecast
    // says there is something to balance, so the phase is not wasted).
    d.invoke = true;
    d.reason = "probing lb cost";
    return d;
  }
  if (accumulated_gain_ > cost_ema_) {
    d.invoke = true;
    d.reason = "gain exceeds cost";
    return d;
  }
  d.reason = "gain below cost";
  return d;
}

void CostBenefitPolicy::record_outcome(bool invoked, double lb_cost_seconds,
                                       std::span<double const> loads_after) {
  if (!invoked) {
    return;
  }
  accumulated_gain_ = 0.0;
  cost_ema_ = cost_ema_ < 0.0
                  ? lb_cost_seconds
                  : kCostEmaAlpha * lb_cost_seconds +
                        (1.0 - kCostEmaAlpha) * cost_ema_;
  if (!loads_after.empty()) {
    // The placement just changed: re-seed the newest observation with
    // the projected post-LB loads so the next forecast starts from the
    // state the next phase will actually start in.
    forecaster_.rebase(loads_after);
  }
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

std::unique_ptr<TriggerPolicy> make_policy(std::string_view spec) {
  if (spec == "always") {
    return std::make_unique<AlwaysPolicy>();
  }
  if (spec == "never") {
    return std::make_unique<NeverPolicy>();
  }
  if (spec.rfind("every-", 0) == 0) {
    auto const k = parse_suffix<std::uint64_t>(spec, "every-");
    if (k < 1) {
      throw std::invalid_argument("every-k needs an integer k >= 1: " +
                                  std::string{spec});
    }
    return std::make_unique<PeriodicPolicy>(0, k);
  }
  if (spec.rfind("threshold-", 0) == 0) {
    auto const lambda = parse_suffix<double>(spec, "threshold-");
    if (!std::isfinite(lambda) || std::signbit(lambda)) {
      throw std::invalid_argument(
          "threshold-<lambda> needs a finite lambda >= 0: " +
          std::string{spec});
    }
    return std::make_unique<ThresholdPolicy>(lambda);
  }
  if (spec == "costbenefit") {
    return std::make_unique<CostBenefitPolicy>();
  }
  throw std::invalid_argument("unknown policy spec: " + std::string{spec});
}

std::vector<std::string_view> policy_specs() {
  return {"always", "never", "every-4", "threshold-0.5", "costbenefit"};
}

} // namespace tlb::policy
