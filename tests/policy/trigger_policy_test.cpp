/// \file trigger_policy_test.cpp
/// The trigger policies' decision contracts, focused on the cost/benefit
/// criterion: quiet on balanced phases, probing before any cost is known,
/// accumulating forecast gain across skips, and firing once the
/// accumulated gain passes the measured-cost EMA.

#include <vector>

#include <gtest/gtest.h>

#include "policy/trigger_policy.hpp"

namespace tlb::policy {
namespace {

std::vector<double> balanced(std::size_t ranks, double load = 1.0) {
  return std::vector<double>(ranks, load);
}

/// One hot rank: λ = (hot/avg) − 1 with avg = (hot + (n−1)) / n.
std::vector<double> one_hot(std::size_t ranks, double hot) {
  std::vector<double> loads(ranks, 1.0);
  loads[0] = hot;
  return loads;
}

TEST(AlwaysPolicy, InvokesEveryPhase) {
  AlwaysPolicy p;
  for (std::uint64_t phase = 0; phase < 4; ++phase) {
    EXPECT_TRUE(p.decide(phase, balanced(4)).invoke);
  }
}

TEST(NeverPolicy, NeverInvokes) {
  NeverPolicy p;
  for (std::uint64_t phase = 0; phase < 4; ++phase) {
    EXPECT_FALSE(p.decide(phase, one_hot(4, 10.0)).invoke);
  }
}

TEST(EveryKPolicy, FiresFirstAndThenEveryK) {
  EveryKPolicy p{3};
  std::string decisions;
  for (std::uint64_t phase = 0; phase < 7; ++phase) {
    decisions += p.decide(phase, balanced(4)).invoke ? 'I' : 'S';
  }
  EXPECT_EQ(decisions, "ISSISSI");
}

TEST(ThresholdPolicy, ReactsToTheForecastImbalance) {
  ThresholdPolicy p{0.5};
  // Balanced: λ̂ = 0 < 0.5 → skip.
  EXPECT_FALSE(p.decide(0, balanced(4)).invoke);
  // 4 ranks, hot = 7: avg = 2.5, λ = 1.8 > 0.5 → invoke.
  auto const d = p.decide(1, one_hot(4, 7.0));
  EXPECT_TRUE(d.invoke);
  EXPECT_NEAR(d.forecast_imbalance, 1.8, 1e-9);
}

TEST(ThresholdPolicy, ExactThresholdDoesNotFire) {
  ThresholdPolicy p{0.5};
  // 2 ranks {3, 1}: λ = exactly 0.5 — the criterion is strict.
  EXPECT_FALSE(p.decide(0, std::vector<double>{3.0, 1.0}).invoke);
}

TEST(CostBenefitPolicy, NeverInvokesOnBalancedPhases) {
  CostBenefitPolicy p;
  for (std::uint64_t phase = 0; phase < 16; ++phase) {
    auto const d = p.decide(phase, balanced(8));
    EXPECT_FALSE(d.invoke) << "phase " << phase;
    EXPECT_EQ(d.reason, "forecast balanced");
    p.record_outcome(false, 0.0, {});
  }
  EXPECT_DOUBLE_EQ(p.accumulated_gain(), 0.0);
}

TEST(CostBenefitPolicy, ProbesOnTheFirstImbalancedPhase) {
  CostBenefitPolicy p;
  auto const d = p.decide(0, one_hot(4, 5.0));
  EXPECT_TRUE(d.invoke);
  EXPECT_EQ(d.reason, "probing lb cost");
  EXPECT_LT(p.cost_ema(), 0.0); // still unmeasured until record_outcome
}

TEST(CostBenefitPolicy, AccumulatesGainAcrossSkipsUntilCostIsCovered) {
  // Persistence model for exact arithmetic: the forecast equals the
  // measured loads, so the per-phase gain is max − avg of the input.
  CostBenefitPolicy::Params params;
  params.model = "persistence";
  CostBenefitPolicy p{params};
  // Probe once and report an expensive invocation (cost 5.0 s), leaving
  // the placement balanced.
  ASSERT_TRUE(p.decide(0, one_hot(4, 5.0)).invoke);
  p.record_outcome(true, 5.0, balanced(4, 2.0));
  EXPECT_DOUBLE_EQ(p.cost_ema(), 5.0);
  EXPECT_DOUBLE_EQ(p.accumulated_gain(), 0.0);

  // Persistent mild imbalance {4,1,1,1}: per-phase gain = 4 − 1.75 =
  // 2.25, so the accumulator passes the 5.0 cost on the third phase.
  auto const mild = one_hot(4, 4.0);
  auto const d1 = p.decide(1, mild);
  EXPECT_FALSE(d1.invoke);
  EXPECT_EQ(d1.reason, "gain below cost");
  EXPECT_NEAR(d1.predicted_gain, 2.25, 1e-9);
  p.record_outcome(false, 0.0, {});
  auto const d2 = p.decide(2, mild);
  EXPECT_FALSE(d2.invoke);
  EXPECT_NEAR(d2.predicted_gain, 4.5, 1e-9);
  p.record_outcome(false, 0.0, {});
  auto const d3 = p.decide(3, mild);
  EXPECT_TRUE(d3.invoke);
  EXPECT_EQ(d3.reason, "gain exceeds cost");
  EXPECT_NEAR(d3.predicted_gain, 6.75, 1e-9);
  EXPECT_GT(d3.predicted_gain, d3.predicted_cost);
}

TEST(CostBenefitPolicy, InvokeResetsTheAccumulatorAndUpdatesTheCostEma) {
  CostBenefitPolicy::Params params;
  params.cost_ema_alpha = 0.5;
  CostBenefitPolicy p{params};
  ASSERT_TRUE(p.decide(0, one_hot(4, 9.0)).invoke);
  p.record_outcome(true, 2.0, {});
  EXPECT_DOUBLE_EQ(p.cost_ema(), 2.0);
  ASSERT_TRUE(p.decide(1, one_hot(4, 9.0)).invoke); // gain 6 > cost 2
  p.record_outcome(true, 4.0, {});
  EXPECT_DOUBLE_EQ(p.cost_ema(), 0.5 * 4.0 + 0.5 * 2.0);
  EXPECT_DOUBLE_EQ(p.accumulated_gain(), 0.0);
}

TEST(CostBenefitPolicy, RebaseStopsStaleImbalanceFromRefiring) {
  CostBenefitPolicy p;
  ASSERT_TRUE(p.decide(0, one_hot(4, 9.0)).invoke);
  // The LB balanced everything; rebase records that. The *next* forecast
  // must see a balanced state, not re-extrapolate the pre-LB spike.
  p.record_outcome(true, 1.0, balanced(4, 3.0));
  auto const d = p.decide(1, balanced(4, 3.0));
  EXPECT_FALSE(d.invoke);
  EXPECT_EQ(d.reason, "forecast balanced");
}

TEST(MakePolicy, ParsesEverySpecFamily) {
  EXPECT_EQ(make_policy("always")->name(), "always");
  EXPECT_EQ(make_policy("never")->name(), "never");
  EXPECT_EQ(make_policy("every-4")->name(), "every-4");
  EXPECT_EQ(make_policy("every-1")->name(), "every-1");
  EXPECT_EQ(make_policy("every-18446744073709551615")->name(),
            "every-18446744073709551615");
  EXPECT_EQ(make_policy("threshold-0.5")->name(), "threshold-0.50");
  EXPECT_EQ(make_policy("threshold-0")->name(), "threshold-0.00");
  EXPECT_EQ(make_policy("threshold-1e-3")->name(), "threshold-0.00");
  EXPECT_EQ(make_policy("costbenefit")->name(), "costbenefit-persistence");
  EXPECT_EQ(make_policy("costbenefit-trend")->name(), "costbenefit-trend");
  EXPECT_EQ(make_policy("costbenefit-ema")->name(), "costbenefit-ema");
}

TEST(MakePolicy, RejectsMalformedSpecs) {
  EXPECT_THROW((void)make_policy("sometimes"), std::invalid_argument);
  EXPECT_THROW((void)make_policy("costbenefit-kalman"),
               std::invalid_argument);
  // every-k: k is an integer >= 1, written out in full. Fractions,
  // exponents, signs, non-finite values and out-of-range integers are
  // malformed, not rounded, wrapped or converted.
  for (char const* spec :
       {"every-0", "every-x", "every-", "every-2.5", "every-4.0", "every-1e30",
        "every-inf", "every-nan", "every--1", "every-+3", "every-4 ",
        "every-18446744073709551616"}) {
    EXPECT_THROW((void)make_policy(spec), std::invalid_argument) << spec;
  }
  // threshold-λ: λ is a finite number >= 0.
  for (char const* spec :
       {"threshold-", "threshold-x", "threshold--0.5", "threshold--0",
        "threshold-nan", "threshold-inf", "threshold--inf", "threshold-1e400",
        "threshold-0.5x"}) {
    EXPECT_THROW((void)make_policy(spec), std::invalid_argument) << spec;
  }
}

TEST(PolicySpecs, AreAllParseable) {
  auto const specs = policy_specs();
  EXPECT_FALSE(specs.empty());
  for (auto const spec : specs) {
    EXPECT_NO_THROW((void)make_policy(spec)) << spec;
  }
}

} // namespace
} // namespace tlb::policy
