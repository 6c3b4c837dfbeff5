/// Cross-validation of the Fenwick-backed incremental CMF against the
/// recompute reference on the §V-B / §V-D table experiment (the E2/E3
/// configuration at CI scale): the accept/reject accounting and the
/// imbalance trajectory must be identical at the default seeds. Any
/// divergence could only come from a floating-point tie at a sampling
/// bucket boundary (the Fenwick prefix sums associate additions in tree
/// order, Cmf scans left to right); none occurs at these seeds, so the
/// tables are pinned exactly.

#include <gtest/gtest.h>

#include "lbaf/experiment.hpp"

namespace tlb::lbaf {
namespace {

Workload vb_workload() {
  // Same CI-scale §V-B stand-in as table_regression_test.cpp.
  return make_bimodal(512, 8, 1200, BimodalSpec{}, 2021);
}

lb::LbParams relaxed_params(lb::CmfRefresh refresh) {
  auto p = lb::LbParams::tempered();
  p.fanout = 6;
  p.rounds = 8;
  p.threshold = 1.0;
  p.num_iterations = 10;
  p.num_trials = 1;
  p.order = lb::OrderKind::arbitrary;
  p.refresh = refresh;
  return p;
}

TEST(IncrementalRegression, E2TableIsUnchangedUnderIncrementalCmf) {
  auto const workload = vb_workload();
  auto const reference =
      run_experiment(relaxed_params(lb::CmfRefresh::recompute), workload);
  auto const incremental =
      run_experiment(relaxed_params(lb::CmfRefresh::incremental), workload);

  ASSERT_EQ(reference.records.size(), incremental.records.size());
  for (std::size_t i = 0; i < reference.records.size(); ++i) {
    auto const& a = reference.records[i];
    auto const& b = incremental.records[i];
    EXPECT_EQ(a.transfers, b.transfers) << "iteration " << a.iteration;
    EXPECT_EQ(a.rejected, b.rejected) << "iteration " << a.iteration;
    EXPECT_DOUBLE_EQ(a.imbalance, b.imbalance) << "iteration " << a.iteration;
  }
  EXPECT_DOUBLE_EQ(reference.best_imbalance, incremental.best_imbalance);
  EXPECT_EQ(reference.best_migrations.size(),
            incremental.best_migrations.size());
}

TEST(IncrementalRegression, TemperedFastPresetMatchesTempered) {
  // The tempered() preset with only the refresh mode switched to
  // incremental reproduces its full multi-trial trajectory.
  auto const workload = vb_workload();
  auto reference = lb::LbParams::tempered();
  auto fast = lb::LbParams::tempered();
  fast.refresh = lb::CmfRefresh::incremental;
  reference.num_trials = 2;
  reference.num_iterations = 4;
  fast.num_trials = 2;
  fast.num_iterations = 4;

  auto const a = run_experiment(reference, workload);
  auto const b = run_experiment(fast, workload);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].transfers, b.records[i].transfers);
    EXPECT_EQ(a.records[i].rejected, b.records[i].rejected);
    EXPECT_DOUBLE_EQ(a.records[i].imbalance, b.records[i].imbalance);
  }
  EXPECT_DOUBLE_EQ(a.best_imbalance, b.best_imbalance);
}

} // namespace
} // namespace tlb::lbaf
