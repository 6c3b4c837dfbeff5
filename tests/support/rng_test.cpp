#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

namespace tlb {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() != b()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 95);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng const root{7};
  Rng a1 = root.split(0);
  Rng a2 = root.split(0);
  Rng b = root.split(1);
  EXPECT_EQ(a1(), a2());
  // Streams with different tags should produce different sequences.
  Rng a3 = root.split(0);
  EXPECT_NE(a3(), b());
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng a{7};
  Rng b{7};
  (void)a.split(3);
  EXPECT_EQ(a(), b());
}

TEST(Rng, DiscardSkipsExactlyNDraws) {
  for (std::uint64_t const n : {0ull, 1ull, 2ull, 63ull, 1000ull}) {
    Rng stepped{0xd15c};
    Rng skipped = stepped;
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)stepped();
    }
    skipped.discard(n);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(skipped(), stepped()) << "n = " << n;
    }
  }
}

TEST(Rng, DiscardWrapsModuloTwoToTheSixtyFour) {
  // n·γ wraps: 2^64 − 1 skipped draws plus one drawn is a full period,
  // which leaves the stream where it started.
  Rng wrapped{42};
  Rng const start = wrapped;
  wrapped.discard(~std::uint64_t{0});
  (void)wrapped();
  Rng fresh = start;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(wrapped(), fresh());
  }
}

TEST(Rng, UniformBelowRespectsBound) {
  Rng rng{123};
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform_below(bound), bound);
    }
  }
}

TEST(Rng, UniformBelowCoversAllValues) {
  Rng rng{99};
  std::array<int, 5> counts{};
  for (int i = 0; i < 5000; ++i) {
    ++counts[rng.uniform_below(5)];
  }
  for (int const c : counts) {
    // Expected 1000 each; loose 5-sigma band.
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng{5};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto const v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng{11};
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double const u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng{13};
  double sum = 0.0;
  double sq = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    double const x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, GammaMeanMatchesShapeTimesScale) {
  Rng rng{17};
  constexpr int n = 20000;
  for (double shape : {0.5, 1.0, 2.0, 5.0}) {
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      double const x = rng.gamma(shape, 2.0);
      ASSERT_GT(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum / n, shape * 2.0, shape * 2.0 * 0.05);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng{19};
  constexpr int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng{23};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{29};
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) {
    v[static_cast<std::size_t>(i)] = i;
  }
  auto const original = v;
  rng.shuffle(std::span<int>{v});
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), original.begin()));
  EXPECT_NE(v, original); // astronomically unlikely to be identity
}

TEST(Rng, ShuffleSingleAndEmptyAreNoops) {
  Rng rng{31};
  std::vector<int> empty;
  rng.shuffle(std::span<int>{empty});
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.shuffle(std::span<int>{one});
  EXPECT_EQ(one[0], 42);
}

} // namespace
} // namespace tlb
