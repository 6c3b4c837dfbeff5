#pragma once

/// \file phase.hpp
/// Phase demarcation and per-task load instrumentation (§III-B, the
/// principle of persistence). Applications call start_phase() at the top
/// of each timestep and record() for every task execution; the load
/// balancer then reads the previous phase's measurements as its predictor
/// of the next phase.

#include <vector>

#include "lb/lb_types.hpp"
#include "support/types.hpp"

namespace tlb::rt {

/// Per-job instrumentation store. Thread-safety: record() for a given rank
/// is only called from that rank's handlers (which the runtime serializes);
/// cross-rank reads happen between phases.
///
/// Layout: record() appends to a flat per-rank vector in arrival order.
/// start_phase() folds each vector into one entry per task, sorted by id,
/// summing repeats in arrival order from 0.0 (the rounding of accumulating
/// into a map), and keeps every vector's capacity for the next phase.
class PhaseInstrumentation {
public:
  explicit PhaseInstrumentation(RankId num_ranks);

  /// Advance to a new phase; clears current measurements after archiving
  /// them as "previous phase" data.
  void start_phase();

  /// Current phase index (0 before the first start_phase()).
  [[nodiscard]] std::size_t phase() const { return phase_; }

  /// Accumulate measured load for `task` executing on `rank` this phase.
  /// Precondition: `load` is finite and non-negative.
  void record(RankId rank, TaskId task, LoadType load);

  /// Tasks and their measured loads on `rank` for the *previous* phase —
  /// what the LB uses as its prediction for the next phase.
  [[nodiscard]] std::vector<lb::TaskEntry> previous_tasks(RankId rank) const;

  /// Sum of the previous phase's task loads on each rank.
  [[nodiscard]] std::vector<LoadType> previous_rank_loads() const;

  /// Tasks measured in the phase currently being recorded.
  [[nodiscard]] std::vector<lb::TaskEntry> current_tasks(RankId rank) const;

private:
  /// Per rank: this phase's records in arrival order; ids may repeat.
  std::vector<std::vector<lb::TaskEntry>> current_;
  /// Per rank: the previous phase folded, one entry per task, by id.
  std::vector<std::vector<lb::TaskEntry>> previous_;
  std::size_t phase_ = 0;
};

} // namespace tlb::rt
