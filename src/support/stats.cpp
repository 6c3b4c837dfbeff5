#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tlb {

double LoadSummary::imbalance() const {
  if (count == 0 || mean <= 0.0) {
    return 0.0;
  }
  return max / mean - 1.0;
}

LoadSummary summarize(std::span<LoadType const> loads) {
  LoadSummary s;
  if (loads.empty()) {
    return s;
  }
  s.count = loads.size();
  s.min = std::numeric_limits<LoadType>::max();
  s.max = std::numeric_limits<LoadType>::lowest();
  for (LoadType const l : loads) {
    s.min = std::min(s.min, l);
    s.max = std::max(s.max, l);
    s.sum += l;
  }
  s.mean = s.sum / static_cast<double>(s.count);
  double var = 0.0;
  for (LoadType const l : loads) {
    double const d = l - s.mean;
    var += d * d;
  }
  s.stddev = std::sqrt(var / static_cast<double>(s.count));
  return s;
}

double imbalance(std::span<LoadType const> loads) {
  return summarize(loads).imbalance();
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double const delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(RunningStats const& other) {
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  double const delta = other.mean_ - mean_;
  auto const na = static_cast<double>(n_);
  auto const nb = static_cast<double>(other.n_);
  double const n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

} // namespace tlb
