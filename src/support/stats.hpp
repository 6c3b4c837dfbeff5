#pragma once

/// \file stats.hpp
/// Descriptive statistics and the paper's imbalance metric (Eqn. 1):
///   I = l_max / l_ave − 1
/// plus helper accumulators used throughout instrumentation and benches.

#include <cstddef>
#include <span>

#include "support/types.hpp"

namespace tlb {

/// Summary of a set of per-rank (or per-task) loads.
struct LoadSummary {
  LoadType min = 0.0;
  LoadType max = 0.0;
  LoadType sum = 0.0;
  LoadType mean = 0.0;
  LoadType stddev = 0.0;
  std::size_t count = 0;

  /// The paper's imbalance metric I = max/mean − 1; 0 means perfect balance.
  [[nodiscard]] double imbalance() const;
};

/// Compute a LoadSummary over a span of loads. Empty input yields an
/// all-zero summary with count == 0.
[[nodiscard]] LoadSummary summarize(std::span<LoadType const> loads);

/// Imbalance of a load vector directly (Eqn. 1); returns 0 for empty input
/// or zero mean.
[[nodiscard]] double imbalance(std::span<LoadType const> loads);

/// Welford online mean/variance accumulator.
class RunningStats {
public:
  void add(double x);
  void merge(RunningStats const& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

} // namespace tlb
