#include "lb/transfer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "support/rng.hpp"

namespace tlb::lb {
namespace {

std::vector<TaskEntry> make_tasks(std::initializer_list<double> loads) {
  std::vector<TaskEntry> out;
  TaskId id = 0;
  for (double const l : loads) {
    out.push_back({id++, l});
  }
  return out;
}

Knowledge make_knowledge(std::initializer_list<KnownRank> entries) {
  Knowledge k;
  for (auto const& e : entries) {
    k.insert(e.rank, e.load);
  }
  return k;
}

LbParams tempered_single() {
  auto p = LbParams::tempered();
  p.num_iterations = 1;
  p.num_trials = 1;
  return p;
}

TEST(Transfer, NotOverloadedProposesNothing) {
  auto const tasks = make_tasks({0.5, 0.5});
  auto knowledge = make_knowledge({{1, 0.1}});
  Rng rng{1};
  auto const r = run_transfer(tempered_single(), 0, tasks, 1.0, 2.0,
                              knowledge, rng);
  EXPECT_TRUE(r.migrations.empty());
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_DOUBLE_EQ(r.final_load, 1.0);
}

TEST(Transfer, EmptyKnowledgeProposesNothing) {
  auto const tasks = make_tasks({2.0, 2.0});
  Knowledge knowledge;
  Rng rng{1};
  auto const r =
      run_transfer(tempered_single(), 0, tasks, 4.0, 1.0, knowledge, rng);
  EXPECT_TRUE(r.migrations.empty());
  EXPECT_EQ(r.no_target, tasks.size());
}

TEST(Transfer, SheddingStopsAtThreshold) {
  // One underloaded peer with plenty of headroom; sender should shed until
  // l_p <= h * l_ave.
  auto const tasks = make_tasks({1.0, 1.0, 1.0, 1.0, 1.0, 1.0});
  auto knowledge = make_knowledge({{1, 0.0}});
  Rng rng{3};
  LbParams params = tempered_single();
  params.threshold = 1.0;
  auto const r = run_transfer(params, 0, tasks, 6.0, 3.0, knowledge, rng);
  EXPECT_LE(r.final_load, 3.0 + 1e-12);
  EXPECT_FALSE(r.migrations.empty());
}

TEST(Transfer, FinalLoadMatchesMigratedSum) {
  auto const tasks = make_tasks({1.5, 0.5, 2.0, 1.0});
  auto knowledge = make_knowledge({{1, 0.2}, {2, 0.8}});
  Rng rng{5};
  auto const r =
      run_transfer(tempered_single(), 0, tasks, 5.0, 1.5, knowledge, rng);
  double migrated = 0.0;
  for (Migration const& m : r.migrations) {
    migrated += m.load;
    EXPECT_EQ(m.from, 0);
    EXPECT_NE(m.to, 0);
  }
  EXPECT_NEAR(r.final_load, 5.0 - migrated, 1e-12);
  EXPECT_EQ(r.accepted, r.migrations.size());
}

TEST(Transfer, KnowledgeLoadsUpdatedOnAcceptance) {
  auto const tasks = make_tasks({1.0});
  auto knowledge = make_knowledge({{7, 0.0}});
  Rng rng{9};
  auto const r =
      run_transfer(tempered_single(), 0, tasks, 1.0 + 2.0, 1.0, knowledge,
                   rng);
  if (!r.migrations.empty()) {
    EXPECT_DOUBLE_EQ(knowledge.load_of(7), 1.0);
  }
}

TEST(Transfer, OriginalCriterionNeverOverloadsRecipient) {
  // Under the original criterion, every accepted transfer keeps the
  // recipient's known load strictly below l_ave.
  Rng workload_rng{11};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<TaskEntry> tasks;
    for (int i = 0; i < 20; ++i) {
      tasks.push_back(
          {static_cast<TaskId>(i), workload_rng.uniform(0.1, 1.0)});
    }
    double const l_p = std::accumulate(
        tasks.begin(), tasks.end(), 0.0,
        [](double a, TaskEntry const& t) { return a + t.load; });
    double const l_ave = l_p / 4.0;
    auto knowledge = make_knowledge(
        {{1, workload_rng.uniform(0.0, l_ave)},
         {2, workload_rng.uniform(0.0, l_ave)}});
    LbParams params = LbParams::grapevine();
    Rng rng{static_cast<std::uint64_t>(trial) + 100};
    auto const r = run_transfer(params, 0, tasks, l_p, l_ave, knowledge, rng);
    for (auto const& e : knowledge.entries()) {
      EXPECT_LT(e.load, l_ave + 1e-12);
    }
    (void)r;
  }
}

TEST(Transfer, RelaxedCriterionKeepsRecipientBelowSenderPreLoad) {
  // Lemma 1's guarantee applied operationally: after any accepted
  // transfer, the recipient's new known load stays below the sender's
  // load just before that transfer, so the pairwise max never grows.
  std::vector<TaskEntry> tasks;
  Rng workload_rng{13};
  for (int i = 0; i < 30; ++i) {
    tasks.push_back(
        {static_cast<TaskId>(i), workload_rng.uniform(0.1, 2.0)});
  }
  double const l_p = std::accumulate(
      tasks.begin(), tasks.end(), 0.0,
      [](double a, TaskEntry const& t) { return a + t.load; });
  double const l_ave = l_p / 8.0;
  auto knowledge = make_knowledge({{1, 0.0}, {2, l_ave}, {3, 2 * l_ave}});
  LbParams params = tempered_single();
  Rng rng{17};
  auto const r = run_transfer(params, 0, tasks, l_p, l_ave, knowledge, rng);
  // Replay: verify the per-step invariant.
  double sender = l_p;
  auto replay = make_knowledge({{1, 0.0}, {2, l_ave}, {3, 2 * l_ave}});
  for (Migration const& m : r.migrations) {
    double const before = replay.load_of(m.to);
    EXPECT_LT(before + m.load, sender + 1e-12);
    replay.add_load(m.to, m.load);
    sender -= m.load;
  }
}

TEST(Transfer, DeterministicGivenSeed) {
  auto const tasks = make_tasks({2.0, 1.0, 0.5, 3.0, 0.7});
  auto k1 = make_knowledge({{1, 0.1}, {2, 0.4}, {3, 0.9}});
  auto k2 = k1;
  Rng r1{21};
  Rng r2{21};
  auto const a =
      run_transfer(tempered_single(), 0, tasks, 7.2, 1.0, k1, r1);
  auto const b =
      run_transfer(tempered_single(), 0, tasks, 7.2, 1.0, k2, r2);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
}

TEST(Transfer, CandidatesBoundedByTaskCount) {
  auto const tasks = make_tasks({1.0, 1.0, 1.0});
  auto knowledge = make_knowledge({{1, 0.9}});
  Rng rng{23};
  LbParams params = tempered_single();
  auto const r = run_transfer(params, 0, tasks, 3.0, 0.5, knowledge, rng);
  EXPECT_LE(r.accepted + r.rejected + r.no_target, tasks.size());
}

TEST(Transfer, BuildOnceUsesStaleCmfButFreshLoadMap) {
  // With a single known peer and build_once, the CMF stays valid even as
  // the peer's known load grows past l_ave; the criterion still reads the
  // fresh load map and eventually rejects.
  auto const tasks = make_tasks({1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0});
  auto knowledge = make_knowledge({{1, 0.0}});
  LbParams params = LbParams::grapevine();
  params.threshold = 1.0;
  Rng rng{25};
  double const l_ave = 2.0;
  auto const r = run_transfer(params, 0, tasks, 8.0, l_ave, knowledge, rng);
  // Original criterion: accepts while 0 + k*1 + 1 < 2, i.e. exactly one
  // task (0+1<2 yes; 1+1<2 no).
  EXPECT_EQ(r.accepted, 1u);
  EXPECT_DOUBLE_EQ(knowledge.load_of(1), 1.0);
}

// The certificate that skips a candidate's CMF is exact only over finite,
// non-negative loads, so run_transfer rejects any other load up front.
TEST(TransferDeath, NanTaskLoadAborts) {
  auto const tasks =
      make_tasks({1.0, std::numeric_limits<double>::quiet_NaN()});
  auto knowledge = make_knowledge({{1, 0.0}});
  Rng rng{1};
  EXPECT_DEATH((void)run_transfer(tempered_single(), 0, tasks, 2.0, 1.0,
                                  knowledge, rng),
               "precondition");
}

TEST(TransferDeath, NegativeTaskLoadAborts) {
  auto const tasks = make_tasks({3.0, -1.0});
  auto knowledge = make_knowledge({{1, 0.0}});
  Rng rng{1};
  EXPECT_DEATH((void)run_transfer(tempered_single(), 0, tasks, 2.0, 1.0,
                                  knowledge, rng),
               "precondition");
}

TEST(TransferDeath, InfiniteKnowledgeLoadAborts) {
  auto const tasks = make_tasks({1.0, 1.0});
  auto knowledge = make_knowledge(
      {{1, 0.0}, {2, std::numeric_limits<double>::infinity()}});
  Rng rng{1};
  EXPECT_DEATH((void)run_transfer(tempered_single(), 0, tasks, 2.0, 1.0,
                                  knowledge, rng),
               "precondition");
}

TEST(TransferDeath, NanAverageLoadAborts) {
  auto const tasks = make_tasks({1.0, 1.0});
  auto knowledge = make_knowledge({{1, 0.0}});
  Rng rng{1};
  EXPECT_DEATH((void)run_transfer(tempered_single(), 0, tasks, 2.0,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  knowledge, rng),
               "precondition");
}

} // namespace
} // namespace tlb::lb
