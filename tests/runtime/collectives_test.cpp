#include "runtime/collectives.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace tlb::rt {
namespace {

RuntimeConfig config(RankId ranks, int threads = 1) {
  RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.num_threads = threads;
  return cfg;
}

TEST(Allreduce, SumAcrossRanks) {
  Runtime rt{config(8)};
  std::vector<int> contributions(8);
  std::iota(contributions.begin(), contributions.end(), 1); // 1..8
  auto const results =
      allreduce(rt, contributions, [](int a, int b) { return a + b; });
  ASSERT_EQ(results.size(), 8u);
  for (int const r : results) {
    EXPECT_EQ(r, 36);
  }
}

TEST(Allreduce, MaxAcrossRanks) {
  Runtime rt{config(5)};
  std::vector<double> const contributions{1.0, 9.0, 3.0, 7.0, 2.0};
  auto const results = allreduce(
      rt, contributions, [](double a, double b) { return std::max(a, b); });
  for (double const r : results) {
    EXPECT_DOUBLE_EQ(r, 9.0);
  }
}

TEST(Allreduce, SingleRank) {
  Runtime rt{config(1)};
  auto const results =
      allreduce(rt, std::vector<int>{42}, [](int a, int b) { return a + b; });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 42);
}

TEST(Allreduce, NonPowerOfTwoRankCounts) {
  for (RankId p : {2, 3, 6, 7, 13, 31}) {
    Runtime rt{config(p)};
    std::vector<long long> contributions(static_cast<std::size_t>(p), 1);
    auto const results = allreduce(
        rt, contributions, [](long long a, long long b) { return a + b; });
    for (auto const r : results) {
      EXPECT_EQ(r, p);
    }
  }
}

TEST(Allreduce, MessageCountIsTwoPMinusTwo) {
  Runtime rt{config(16)};
  rt.reset_stats();
  std::vector<int> const contributions(16, 1);
  (void)allreduce(rt, contributions, [](int a, int b) { return a + b; });
  // P posts (driver injection) + (P-1) up + (P-1) down.
  EXPECT_EQ(rt.stats().messages, 16u + 15u + 15u);
}

TEST(AllreduceLoads, ComputesMaxSumCount) {
  Runtime rt{config(4)};
  std::vector<LoadType> const loads{1.0, 4.0, 2.0, 3.0};
  auto const stats = allreduce_loads(rt, loads);
  for (auto const& s : stats) {
    EXPECT_DOUBLE_EQ(s.max, 4.0);
    EXPECT_DOUBLE_EQ(s.sum, 10.0);
    EXPECT_EQ(s.count, 4);
    EXPECT_DOUBLE_EQ(s.average(), 2.5);
  }
}

TEST(AllreduceLoads, ZeroLoads) {
  Runtime rt{config(3)};
  std::vector<LoadType> const loads{0.0, 0.0, 0.0};
  auto const stats = allreduce_loads(rt, loads);
  EXPECT_DOUBLE_EQ(stats[0].max, 0.0);
  EXPECT_DOUBLE_EQ(stats[0].average(), 0.0);
}

TEST(Allreduce, ThreadedMatchesSequential) {
  std::vector<double> contributions;
  for (int i = 0; i < 24; ++i) {
    contributions.push_back(static_cast<double>(i * i));
  }
  Runtime seq{config(24, 1)};
  Runtime thr{config(24, 4)};
  auto const op = [](double a, double b) { return a + b; };
  auto const a = allreduce(seq, contributions, op);
  auto const b = allreduce(thr, contributions, op);
  EXPECT_DOUBLE_EQ(a[0], b[0]);
  EXPECT_DOUBLE_EQ(a[0], a[23]);
}

TEST(LoadStat, CombineIsAssociativeOnSamples) {
  LoadStat const a = LoadStat::of(1.0);
  LoadStat const b = LoadStat::of(5.0);
  LoadStat const c = LoadStat::of(3.0);
  auto const left = combine(combine(a, b), c);
  auto const right = combine(a, combine(b, c));
  EXPECT_DOUBLE_EQ(left.max, right.max);
  EXPECT_DOUBLE_EQ(left.sum, right.sum);
  EXPECT_EQ(left.count, right.count);
}

} // namespace
} // namespace tlb::rt
