#pragma once

/// \file experiment.hpp
/// The iterative-refinement driver (Algorithm 3) over a sequential
/// emulation of the distributed protocol. Reproduces the §V-B and §V-D
/// iteration tables: per-iteration transfer/rejection counts and the
/// imbalance trajectory.
///
/// The transfer stage honors both CmfRefresh modes; recompute produces
/// the published TemperedLB tables.

#include <cstdint>
#include <optional>
#include <vector>

#include "lb/lb_types.hpp"
#include "lbaf/assignment.hpp"
#include "lbaf/gossip_sim.hpp"
#include "lbaf/workload.hpp"
#include "obs/lb_report.hpp"

namespace tlb::lbaf {

/// One row of the paper's iteration tables.
struct IterationRecord {
  int trial = 0;
  int iteration = 0;             ///< 1-based; the paper's index column
  std::size_t transfers = 0;     ///< accepted proposals this iteration
  std::size_t rejected = 0;      ///< rejected proposals this iteration
  double rejection_rate = 0.0;   ///< rejected / (transfers + rejected), %
  double imbalance = 0.0;        ///< I after applying this iteration
  std::size_t gossip_messages = 0;
  std::size_t gossip_bytes = 0; ///< wire bytes of this iteration's epoch
};

/// Result of a full Algorithm 3 run (trials x iterations).
struct ExperimentResult {
  double initial_imbalance = 0.0;
  std::vector<IterationRecord> records; ///< all trials, iteration-major
  /// Best (lowest-I) state observed at any iteration of any trial.
  double best_imbalance = 0.0;
  int best_trial = 0;
  int best_iteration = 0;
  /// Migrations that realize the best state relative to the initial
  /// assignment (Algorithm 3 line 13).
  std::vector<Migration> best_migrations;
};

/// Run Algorithm 3 on a workload. When `report` is non-null the run also
/// feeds it the per-round gossip statistics, the per-iteration
/// objective/transfer trajectory, and the final outcome (the sequential
/// analogue of the distributed strategies' introspection).
[[nodiscard]] ExperimentResult
run_experiment(lb::LbParams const& params, Workload const& workload,
               obs::LbReportBuilder* report = nullptr);

/// Convenience: the records for a single trial, in iteration order.
[[nodiscard]] std::vector<IterationRecord>
trial_records(ExperimentResult const& result, int trial);

} // namespace tlb::lbaf
