/// \file trigger_policy_test.cpp
/// The trigger policies' decision contracts, focused on the cost/benefit
/// criterion: quiet on balanced phases, probing before any cost is known,
/// accumulating forecast gain across skips, and firing once the
/// accumulated gain passes the measured-cost EMA. PeriodicPolicy must
/// reproduce, decision for decision, the schedule PicApp used to run on
/// its own.

#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "policy/trigger_policy.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

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

TEST(PeriodicPolicy, FiresFirstAndThenEveryK) {
  PeriodicPolicy p{0, 3};
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
  // The persistence forecast equals the measured loads, so the per-phase
  // gain is max − avg of the input.
  CostBenefitPolicy p;
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
  CostBenefitPolicy p;
  ASSERT_TRUE(p.decide(0, one_hot(4, 9.0)).invoke);
  p.record_outcome(true, 2.0, {});
  EXPECT_DOUBLE_EQ(p.cost_ema(), 2.0);
  ASSERT_TRUE(p.decide(1, one_hot(4, 9.0)).invoke); // gain 6 > cost 2
  p.record_outcome(true, 4.0, {});
  // The newest cost weighs α = 0.3.
  EXPECT_DOUBLE_EQ(p.cost_ema(), 0.3 * 4.0 + 0.7 * 2.0);
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
  EXPECT_EQ(make_policy("costbenefit")->name(), "costbenefit");
}

TEST(MakePolicy, RejectsMalformedSpecs) {
  EXPECT_THROW((void)make_policy("sometimes"), std::invalid_argument);
  // costbenefit takes no parameter: it always forecasts by persistence.
  for (char const* spec :
       {"costbenefit-", "costbenefit-persistence", "costbenefit-ema",
        "costbenefit-trend", "costbenefit-periodic", "costbenefit-kalman"}) {
    EXPECT_THROW((void)make_policy(spec), std::invalid_argument) << spec;
  }
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

namespace {

/// PicApp's schedule parameters (PicConfig's int fields).
struct PicSchedule {
  int first;
  int period;
  double trigger;
  int cooldown;
};

/// Readable, deterministic test names (ctest lists the printed value).
void PrintTo(PicSchedule const& c, std::ostream* os) {
  *os << "first " << c.first << ", period " << c.period << ", trigger "
      << c.trigger << ", cooldown " << c.cooldown;
}

/// A seeded 300-phase series of 4-rank loads: one hot rank puts λ
/// anywhere in [0, 2.2], mixed with balanced phases (λ = 0) and phases
/// of exactly λ = 0.5 (max 3 over mean 2), so every trigger below is
/// crossed both ways and the 0.5 trigger's strictness is exercised.
std::vector<std::vector<double>> schedule_series() {
  tlb::Rng rng{0x9e71};
  std::vector<std::vector<double>> series;
  for (int phase = 0; phase < 300; ++phase) {
    switch (rng.uniform_below(6)) {
    case 0: series.push_back({1.0, 1.0, 1.0, 1.0}); break;
    case 1: series.push_back({3.0, 1.0, 3.0, 1.0}); break;
    default: series.push_back({rng.uniform(0.5, 12.0), 1.0, 1.0, 1.0});
    }
  }
  return series;
}

/// The fixture shares PeriodicPolicy's name, so the test body names the
/// policy class in full.
class PeriodicPolicy : public ::testing::TestWithParam<PicSchedule> {};

TEST_P(PeriodicPolicy, MatchesTheDeletedPicSchedule) {
  PicSchedule const c = GetParam();
  // PicApp's own schedule predicate before it became a PeriodicPolicy,
  // written out with the last-invocation bookkeeping PicApp::run kept.
  int last_lb = -1;
  auto const pic_schedule = [&](int step, double measured_imbalance) {
    if (step == c.first) {
      return true;
    }
    if (step > c.first && step % c.period == 0) {
      return true;
    }
    return c.trigger > 0.0 && step > c.first &&
           measured_imbalance > c.trigger && step - last_lb >= c.cooldown;
  };

  tlb::policy::PeriodicPolicy policy{static_cast<std::uint64_t>(c.first),
                                     static_cast<std::uint64_t>(c.period),
                                     c.trigger,
                                     static_cast<std::uint64_t>(c.cooldown)};
  std::string expected;
  std::string actual;
  int above = 0;
  auto const series = schedule_series();
  for (int step = 0; step < static_cast<int>(series.size()); ++step) {
    auto const& loads = series[static_cast<std::size_t>(step)];
    double const lambda = tlb::imbalance(loads);
    bool const invoke = pic_schedule(step, lambda);
    if (invoke) {
      last_lb = step;
    }
    expected += invoke ? 'I' : 'S';
    actual +=
        policy.decide(static_cast<std::uint64_t>(step), loads).invoke ? 'I'
                                                                      : 'S';
    above += lambda > c.trigger ? 1 : 0;
  }
  if (c.trigger > 0.0) {
    EXPECT_GT(above, 0) << "the series must cross the trigger";
    EXPECT_LT(above, static_cast<int>(series.size()));
  }
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(
    PicSchedules, PeriodicPolicy,
    ::testing::Values(PicSchedule{0, 1, 0.0, 0}, PicSchedule{0, 4, 0.0, 0},
                      PicSchedule{2, 100, 0.0, 10},
                      PicSchedule{2, 5, 0.0, 10},
                      PicSchedule{2, 20, 0.3, 5},
                      PicSchedule{2, 1000, 0.01, 7},
                      PicSchedule{2, 100, 2.0, 10},
                      PicSchedule{2, 100, 0.5, 10}));

} // namespace
