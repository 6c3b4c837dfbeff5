/// \file forecaster_test.cpp
/// The persistence Forecaster's contracts: forecast validity, the
/// newest-observation forecast, self-scoring (relative L1 error + EMA),
/// and the post-LB rebase that re-seeds the newest observation.

#include <vector>

#include <gtest/gtest.h>

#include "policy/forecaster.hpp"

namespace tlb::policy {
namespace {

TEST(Forecaster, InvalidBeforeAnyObservation) {
  Forecaster f;
  auto const forecast = f.predict();
  EXPECT_FALSE(forecast.valid);
  EXPECT_TRUE(forecast.loads.empty());
}

TEST(Forecaster, PersistencePredictsTheLastObservation) {
  Forecaster f;
  f.observe(std::vector<double>{1.0, 2.0, 3.0});
  f.observe(std::vector<double>{2.0, 4.0, 6.0});
  auto const forecast = f.predict();
  ASSERT_TRUE(forecast.valid);
  EXPECT_EQ(forecast.loads, (std::vector<double>{2.0, 4.0, 6.0}));
  EXPECT_DOUBLE_EQ(forecast.load_max, 6.0);
  EXPECT_DOUBLE_EQ(forecast.load_avg, 4.0);
  EXPECT_DOUBLE_EQ(forecast.imbalance, 0.5);
}

TEST(Forecaster, ScoresThePreviousForecast) {
  Forecaster f;
  f.observe(std::vector<double>{2.0, 2.0});
  (void)f.predict(); // forecast {2, 2}
  // Measured exactly as forecast: zero error.
  f.observe(std::vector<double>{2.0, 2.0});
  EXPECT_DOUBLE_EQ(f.last_error(), 0.0);
  (void)f.predict();
  // Measured {3, 1}: relative L1 error = (1 + 1) / 4 = 0.5.
  f.observe(std::vector<double>{3.0, 1.0});
  EXPECT_NEAR(f.last_error(), 0.5, 1e-12);
  EXPECT_GT(f.error_ema(), 0.0);
}

TEST(Forecaster, UnscoredPhasesDoNotCountAsErrors) {
  Forecaster f;
  // observe without predict between: nothing pending, nothing scored.
  f.observe(std::vector<double>{1.0});
  f.observe(std::vector<double>{5.0});
  EXPECT_DOUBLE_EQ(f.last_error(), 0.0);
  EXPECT_EQ(f.observations(), 2u);
}

TEST(Forecaster, RebaseReplacesTheNewestPoint) {
  Forecaster f;
  f.observe(std::vector<double>{9.0, 1.0});
  f.rebase(std::vector<double>{5.0, 5.0});
  auto const forecast = f.predict();
  ASSERT_TRUE(forecast.valid);
  EXPECT_EQ(forecast.loads, (std::vector<double>{5.0, 5.0}));
  EXPECT_DOUBLE_EQ(forecast.imbalance, 0.0);
}

TEST(Forecaster, RebaseOnEmptyHistoryIsANoOp) {
  Forecaster f;
  f.rebase(std::vector<double>{1.0, 2.0});
  EXPECT_FALSE(f.predict().valid);
}

TEST(Forecaster, ClampsNegativeObservations) {
  Forecaster f;
  f.observe(std::vector<double>{-2.0, 4.0});
  auto const forecast = f.predict();
  ASSERT_TRUE(forecast.valid);
  EXPECT_EQ(forecast.loads, (std::vector<double>{0.0, 4.0}));
  EXPECT_DOUBLE_EQ(forecast.load_avg, 2.0);
}

TEST(Forecaster, ClearForgetsEverything) {
  Forecaster f;
  f.observe(std::vector<double>{1.0});
  f.clear();
  EXPECT_FALSE(f.predict().valid);
  EXPECT_EQ(f.observations(), 0u);
}

} // namespace
} // namespace tlb::policy
