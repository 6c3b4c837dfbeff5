#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/rng.hpp"

namespace tlb {
namespace {

TEST(Summarize, EmptyInput) {
  auto const s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.imbalance(), 0.0);
}

TEST(Summarize, SingleValue) {
  std::vector<LoadType> const loads{4.0};
  auto const s = summarize(loads);
  EXPECT_EQ(s.min, 4.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_EQ(s.mean, 4.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.imbalance(), 0.0);
}

TEST(Summarize, KnownValues) {
  std::vector<LoadType> const loads{1.0, 2.0, 3.0, 6.0};
  auto const s = summarize(loads);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.sum, 12.0);
}

TEST(Imbalance, PerfectBalanceIsZero) {
  std::vector<LoadType> const loads{2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(imbalance(loads), 0.0);
}

TEST(Imbalance, PaperEquationOne) {
  // I = l_max / l_ave - 1: one rank with everything, P = 4 -> I = 3.
  std::vector<LoadType> const loads{8.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(imbalance(loads), 3.0);
}

TEST(Imbalance, ZeroMeanYieldsZero) {
  std::vector<LoadType> const loads{0.0, 0.0};
  EXPECT_DOUBLE_EQ(imbalance(loads), 0.0);
}

TEST(Imbalance, ScaleInvariant) {
  std::vector<LoadType> a{1.0, 3.0, 5.0, 7.0};
  std::vector<LoadType> b;
  for (LoadType const l : a) {
    b.push_back(l * 1000.0);
  }
  EXPECT_NEAR(imbalance(a), imbalance(b), 1e-12);
}

TEST(RunningStats, MatchesBatchSummary) {
  Rng rng{101};
  std::vector<LoadType> values;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    double const x = rng.uniform(0.0, 10.0);
    values.push_back(x);
    rs.add(x);
  }
  auto const s = summarize(values);
  EXPECT_NEAR(rs.mean(), s.mean, 1e-9);
  EXPECT_NEAR(rs.stddev(), s.stddev, 1e-6);
  EXPECT_NEAR(rs.min(), s.min, 1e-12);
  EXPECT_NEAR(rs.max(), s.max, 1e-12);
  EXPECT_EQ(rs.count(), s.count);
}

TEST(RunningStats, MergeEqualsSingleStream) {
  Rng rng{103};
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 500; ++i) {
    double const x = rng.normal();
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats const empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);

  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

} // namespace
} // namespace tlb
