#include "policy/forecaster.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"
#include "support/stats.hpp"

namespace tlb::policy {

namespace {

/// Weight of the newest error observation in the trailing EMA.
constexpr double kErrorEmaAlpha = 0.3;

} // namespace

void Forecaster::observe(std::span<double const> loads) {
  TLB_EXPECTS(!loads.empty());
  TLB_EXPECTS(newest_.empty() || newest_.size() == loads.size());

  // Score the forecast issued for this phase, if one is pending.
  if (!pending_forecast_.empty()) {
    double abs_err = 0.0;
    double total = 0.0;
    for (std::size_t r = 0; r < loads.size(); ++r) {
      abs_err += std::abs(pending_forecast_[r] - loads[r]);
      total += loads[r];
    }
    constexpr double kEps = 1e-12;
    last_error_ = abs_err / std::max(total, kEps);
    error_ema_ = scored_ == 0 ? last_error_
                              : kErrorEmaAlpha * last_error_ +
                                    (1.0 - kErrorEmaAlpha) * error_ema_;
    ++scored_;
    pending_forecast_.clear();
  }

  newest_.assign(loads.begin(), loads.end());
  ++observations_;
}

void Forecaster::rebase(std::span<double const> loads) {
  if (newest_.empty()) {
    return;
  }
  TLB_EXPECTS(newest_.size() == loads.size());
  newest_.assign(loads.begin(), loads.end());
}

Forecast Forecaster::predict() {
  Forecast f;
  if (newest_.empty()) {
    return f;
  }
  f.loads.reserve(newest_.size());
  for (double const l : newest_) {
    f.loads.push_back(std::max(l, 0.0));
  }
  auto const summary = summarize(f.loads);
  f.load_max = summary.max;
  f.load_avg = summary.mean;
  f.imbalance = summary.imbalance();
  f.valid = true;
  pending_forecast_ = f.loads;
  return f;
}

void Forecaster::clear() {
  newest_.clear();
  pending_forecast_.clear();
  last_error_ = 0.0;
  error_ema_ = 0.0;
  scored_ = 0;
  observations_ = 0;
}

} // namespace tlb::policy
