#include <gtest/gtest.h>

#include <set>

#include "lb/knowledge.hpp"
#include "support/rng.hpp"

namespace tlb::lb {
namespace {

Knowledge make_knowledge(int n) {
  Knowledge k;
  for (int i = 0; i < n; ++i) {
    k.insert(static_cast<RankId>(i), static_cast<LoadType>(n - i));
  }
  return k; // rank 0 heaviest (load n), rank n-1 lightest (load 1)
}

TEST(KnowledgeTruncate, ZeroCapIsNoop) {
  auto k = make_knowledge(10);
  Rng rng{1};
  k.truncate_random(0, rng);
  EXPECT_EQ(k.size(), 10u);
}

TEST(KnowledgeTruncate, CapLargerThanSizeIsNoop) {
  auto k = make_knowledge(5);
  Rng rng{1};
  k.truncate_random(10, rng);
  EXPECT_EQ(k.size(), 5u);
}

TEST(KnowledgeTruncateRandom, SubsetOfOriginal) {
  auto const original = make_knowledge(30);
  Rng rng{7};
  auto k = original;
  k.truncate_random(10, rng);
  ASSERT_EQ(k.size(), 10u);
  for (auto const& e : k.entries()) {
    ASSERT_TRUE(original.contains(e.rank));
    EXPECT_DOUBLE_EQ(original.load_of(e.rank), e.load);
  }
  auto const entries = k.entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].rank, entries[i].rank);
  }
}

TEST(KnowledgeTruncateRandom, DifferentStreamsKeepDifferentSubsets) {
  // The whole point of random truncation: de-correlated target sets.
  auto const original = make_knowledge(100);
  Rng r1{1};
  Rng r2{2};
  auto a = original;
  auto b = original;
  a.truncate_random(10, r1);
  b.truncate_random(10, r2);
  std::set<RankId> sa;
  std::set<RankId> sb;
  for (auto const& e : a.entries()) {
    sa.insert(e.rank);
  }
  for (auto const& e : b.entries()) {
    sb.insert(e.rank);
  }
  EXPECT_NE(sa, sb);
}

TEST(KnowledgeTruncateRandom, UniformCoverageOverManyDraws) {
  auto const original = make_knowledge(20);
  Rng rng{11};
  std::vector<int> kept(20, 0);
  constexpr int draws = 4000;
  for (int d = 0; d < draws; ++d) {
    auto k = original;
    k.truncate_random(5, rng);
    for (auto const& e : k.entries()) {
      ++kept[static_cast<std::size_t>(e.rank)];
    }
  }
  // Each rank survives with probability 1/4: expect ~1000 each.
  for (int const c : kept) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

} // namespace
} // namespace tlb::lb
