#pragma once

/// \file forecaster.hpp
/// The persistence forecaster: each phase the caller feeds the measured
/// per-rank loads (observe), and the forecaster predicts that the next
/// phase repeats them (predict), together with the predicted imbalance
/// λ̂ = max/avg − 1. This is the principle of persistence the paper's
/// balancer already rests on (§III-B). The forecaster also scores itself:
/// every observe() compares the measured loads against the forecast
/// issued the phase before and folds the relative L1 error into a
/// trailing EMA — the forecast-error metric the phase timeline records.

#include <cstdint>
#include <span>
#include <vector>

namespace tlb::policy {

/// One predicted next-phase state.
struct Forecast {
  std::vector<double> loads; ///< predicted per-rank loads
  double load_max = 0.0;
  double load_avg = 0.0;
  /// Predicted imbalance λ̂ = max/avg − 1 (0 when avg is 0).
  double imbalance = 0.0;
  /// False until at least one observation has been made.
  bool valid = false;
};

class Forecaster {
public:
  [[nodiscard]] std::uint64_t observations() const { return observations_; }

  /// Feed one phase's measured per-rank loads. The rank count is fixed by
  /// the first call; later calls must match. Scores the previous
  /// forecast (if any) against `loads` before keeping them as the newest
  /// observation.
  void observe(std::span<double const> loads);

  /// Predict the next phase: the newest observation, clamped at 0. Also
  /// retains the forecast internally so the next observe() can score it.
  [[nodiscard]] Forecast predict();

  /// Replace the newest observation with `loads`: called after an LB pass
  /// reshuffles the placement, so the next forecast starts from the loads
  /// the *next* phase will actually start from rather than the
  /// pre-migration measurement. No-op before the first observation; the
  /// rank count must match. Does not affect forecast scoring.
  void rebase(std::span<double const> loads);

  /// Relative L1 error of the most recently scored forecast:
  ///   Σ_r |pred_r − meas_r| / max(Σ_r meas_r, ε)
  /// 0 until a forecast has been scored.
  [[nodiscard]] double last_error() const { return last_error_; }

  /// EMA of the per-phase forecast error (same metric as last_error).
  [[nodiscard]] double error_ema() const { return error_ema_; }

  void clear();

private:
  std::vector<double> newest_;           ///< empty before any observation
  std::vector<double> pending_forecast_; ///< awaiting scoring; empty if none
  double last_error_ = 0.0;
  double error_ema_ = 0.0;
  std::uint64_t scored_ = 0;
  std::uint64_t observations_ = 0;
};

} // namespace tlb::policy
