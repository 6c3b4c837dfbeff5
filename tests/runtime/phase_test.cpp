#include "runtime/phase.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <map>

#include "support/rng.hpp"

namespace tlb::rt {
namespace {

TEST(Phase, StartsAtZero) {
  PhaseInstrumentation inst{2};
  EXPECT_EQ(inst.phase(), 0u);
  EXPECT_TRUE(inst.previous_tasks(0).empty());
}

TEST(Phase, RecordAccumulatesPerTask) {
  PhaseInstrumentation inst{2};
  inst.record(0, 10, 1.5);
  inst.record(0, 10, 0.5); // same task, accumulates
  inst.record(0, 11, 2.0);
  auto const tasks = inst.current_tasks(0);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].id, 10);
  EXPECT_DOUBLE_EQ(tasks[0].load, 2.0);
  EXPECT_EQ(tasks[1].id, 11);
  EXPECT_DOUBLE_EQ(tasks[1].load, 2.0);
}

TEST(Phase, StartPhaseArchivesCurrentAsPrevious) {
  PhaseInstrumentation inst{2};
  inst.record(0, 1, 3.0);
  inst.record(1, 2, 4.0);
  inst.start_phase();
  EXPECT_EQ(inst.phase(), 1u);
  EXPECT_TRUE(inst.current_tasks(0).empty());
  auto const prev0 = inst.previous_tasks(0);
  ASSERT_EQ(prev0.size(), 1u);
  EXPECT_DOUBLE_EQ(prev0[0].load, 3.0);
  auto const loads = inst.previous_rank_loads();
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_DOUBLE_EQ(loads[0], 3.0);
  EXPECT_DOUBLE_EQ(loads[1], 4.0);
}

TEST(Phase, TwoPhaseHistoryWindow) {
  PhaseInstrumentation inst{1};
  inst.record(0, 1, 1.0);
  inst.start_phase(); // phase 1: previous has load 1.0
  inst.record(0, 1, 9.0);
  inst.start_phase(); // phase 2: previous has load 9.0
  auto const prev = inst.previous_tasks(0);
  ASSERT_EQ(prev.size(), 1u);
  EXPECT_DOUBLE_EQ(prev[0].load, 9.0);
}

TEST(Phase, TaskDisappearsWhenNotRecorded) {
  PhaseInstrumentation inst{1};
  inst.record(0, 1, 1.0);
  inst.record(0, 2, 2.0);
  inst.start_phase();
  inst.record(0, 1, 1.0); // task 2 idle this phase
  inst.start_phase();
  auto const prev = inst.previous_tasks(0);
  ASSERT_EQ(prev.size(), 1u);
  EXPECT_EQ(prev[0].id, 1);
}

/// The layout the flat store replaced: one map per rank, accumulated with
/// `+=` from a value-initialized 0.0.
using Reference = std::vector<std::map<TaskId, LoadType>>;

std::uint64_t bits(LoadType load) { return std::bit_cast<std::uint64_t>(load); }

void expect_bit_equal(std::vector<lb::TaskEntry> const& got,
                      std::map<TaskId, LoadType> const& want) {
  ASSERT_EQ(got.size(), want.size());
  auto it = want.begin();
  for (lb::TaskEntry const& entry : got) {
    EXPECT_EQ(entry.id, it->first);
    EXPECT_EQ(bits(entry.load), bits(it->second)) << "task " << entry.id;
    ++it;
  }
}

TEST(Phase, RandomRecordStreamMatchesMapReference) {
  // Ids arrive out of order and repeat, so every sum depends on the fold
  // order; -0.0 records pin the 0.0 starting value.
  constexpr RankId ranks = 4;
  PhaseInstrumentation inst{ranks};
  Rng rng{0x5eed'f01d};
  for (int phase = 0; phase < 6; ++phase) {
    Reference current(static_cast<std::size_t>(ranks));
    for (int i = 0; i < 300; ++i) {
      auto const rank = static_cast<RankId>(rng.uniform_below(ranks));
      auto const task = static_cast<TaskId>(rng.uniform_below(40));
      LoadType const load =
          rng.uniform_below(16) == 0 ? -0.0 : rng.uniform(0.0, 3.0);
      inst.record(rank, task, load);
      current[static_cast<std::size_t>(rank)][task] += load;
    }
    for (RankId r = 0; r < ranks; ++r) {
      expect_bit_equal(inst.current_tasks(r),
                       current[static_cast<std::size_t>(r)]);
    }
    inst.start_phase();
    std::vector<LoadType> const loads = inst.previous_rank_loads();
    ASSERT_EQ(loads.size(), static_cast<std::size_t>(ranks));
    for (RankId r = 0; r < ranks; ++r) {
      auto const& want = current[static_cast<std::size_t>(r)];
      expect_bit_equal(inst.previous_tasks(r), want);
      EXPECT_TRUE(inst.current_tasks(r).empty());
      LoadType sum = 0.0;
      for (auto const& [id, load] : want) {
        sum += load;
      }
      EXPECT_EQ(bits(loads[static_cast<std::size_t>(r)]), bits(sum));
    }
  }
}

/// A measured load must be finite and non-negative: anything else would
/// poison every imbalance the balancers compute from it.
class PhaseLoadDeath : public ::testing::TestWithParam<LoadType> {};

TEST_P(PhaseLoadDeath, InvalidLoadAborts) {
  PhaseInstrumentation inst{1};
  EXPECT_DEATH(inst.record(0, 1, GetParam()), "precondition");
}

INSTANTIATE_TEST_SUITE_P(
    NegativeOrNonFinite, PhaseLoadDeath,
    ::testing::Values(-1.0, -std::numeric_limits<LoadType>::infinity(),
                      std::numeric_limits<LoadType>::quiet_NaN(),
                      std::numeric_limits<LoadType>::infinity()));

TEST(PhaseDeath, BadRankAborts) {
  PhaseInstrumentation inst{1};
  EXPECT_DEATH(inst.record(3, 1, 1.0), "precondition");
}

} // namespace
} // namespace tlb::rt
