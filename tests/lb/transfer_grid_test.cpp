/// Exhaustive variant-grid property tests of the transfer stage: every
/// (criterion x CMF x refresh x ordering) combination must satisfy the
/// same structural invariants on randomized inputs, and make the same
/// decisions as Algorithm 2 written out literally.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <string>

#include "lb/cmf.hpp"
#include "lb/criterion.hpp"
#include "lb/order.hpp"
#include "lb/transfer.hpp"
#include "support/rng.hpp"

namespace tlb::lb {
namespace {

/// One overloaded rank's view at the start of a transfer pass.
struct RankState {
  std::vector<TaskEntry> tasks;
  double l_p = 0.0;
  double l_ave = 0.0;
  Knowledge knowledge;
};

/// 20 random overloaded-rank states, then 20 near-balanced ones.
std::vector<RankState> random_states(std::uint64_t seed) {
  Rng workload_rng{seed * 7919 + 13};
  std::vector<RankState> states(40);
  for (std::size_t s = 0; s < 20; ++s) {
    RankState& st = states[s];
    auto const n = 1 + workload_rng.index(60);
    for (std::size_t i = 0; i < n; ++i) {
      double const load = workload_rng.uniform(0.05, 2.0);
      st.tasks.push_back({static_cast<TaskId>(i), load});
      st.l_p += load;
    }
    st.l_ave = st.l_p / workload_rng.uniform(2.0, 16.0);
    auto const peers = 1 + workload_rng.index(20);
    for (std::size_t i = 0; i < peers; ++i) {
      st.knowledge.insert(static_cast<RankId>(i + 1),
                          workload_rng.uniform(0.0, 1.5 * st.l_ave));
    }
  }
  // The bdot-lbheavy regime: l_p just above l_ave, tasks heavier than the
  // excess l_p − l_ave, and peers known at loads close to l_ave, so most
  // candidates are certified rejected.
  for (std::size_t s = 20; s < 40; ++s) {
    RankState& st = states[s];
    auto const n = 1 + workload_rng.index(24);
    for (std::size_t i = 0; i < n; ++i) {
      double const load = workload_rng.uniform(0.02, 0.06);
      st.tasks.push_back({static_cast<TaskId>(i), load});
      st.l_p += load;
    }
    st.l_ave = st.l_p / workload_rng.uniform(1.001, 1.03);
    auto const peers = 1 + workload_rng.index(40);
    for (std::size_t i = 0; i < peers; ++i) {
      st.knowledge.insert(static_cast<RankId>(i + 1),
                          st.l_ave * workload_rng.uniform(0.97, 1.01));
    }
  }
  return states;
}

/// The lowest load known for a rank other than `self` (+inf if none).
LoadType lowest_known(Knowledge const& knowledge, RankId self) {
  LoadType lo = std::numeric_limits<LoadType>::infinity();
  for (KnownRank const& e : knowledge.entries()) {
    if (e.rank != self) {
      lo = std::min(lo, e.load);
    }
  }
  return lo;
}

struct Reference {
  TransferResult result;
  /// Candidates with a sampleable rank that the criterion rejects even at
  /// the lowest known load.
  std::size_t certified = 0;
};

/// Algorithm 2 as the paper writes it: under recompute the CMF is built
/// before every candidate (line 7), under build_once once before the loop
/// (line 5). Its cmf_rebuilds is the count run_transfer must report. A
/// candidate is *certified* when its CMF is not empty and the criterion
/// rejects it at the lowest non-self load of the knowledge that CMF is
/// built from. A build counts at the first uncertified candidate with a
/// non-empty CMF after the start of the pass and, under recompute, after
/// each accepted transfer.
Reference reference_transfer(LbParams const& p, RankId self,
                             std::vector<TaskEntry> const& tasks,
                             LoadType l_p, LoadType l_ave,
                             Knowledge& knowledge, Rng& rng) {
  Reference ref;
  TransferResult& r = ref.result;
  r.final_load = l_p;
  std::vector<TaskEntry> const order = order_tasks(p.order, tasks, l_ave, l_p);
  std::optional<Cmf> cmf;
  LoadType lo = lowest_known(knowledge, self);
  if (p.refresh == CmfRefresh::build_once) {
    cmf.emplace(p.cmf, knowledge.entries(), l_ave, self);
  }
  bool built = false; // since the pass started or the last acceptance
  for (std::size_t n = 0;
       r.final_load > p.threshold * l_ave && n < order.size(); ++n) {
    TaskEntry const& candidate = order[n];
    if (p.refresh == CmfRefresh::recompute) {
      cmf.emplace(p.cmf, knowledge.entries(), l_ave, self);
      lo = lowest_known(knowledge, self);
    }
    if (cmf->empty()) {
      ++r.no_target;
      continue;
    }
    if (!evaluate_criterion(p.criterion, lo, candidate.load, l_ave,
                            r.final_load)) {
      ++ref.certified;
    } else if (!built) {
      ++r.cmf_rebuilds;
      built = true;
    }
    RankId const target = cmf->sample(rng);
    LoadType const l_x = knowledge.load_of(target);
    if (evaluate_criterion(p.criterion, l_x, candidate.load, l_ave,
                           r.final_load)) {
      knowledge.add_load(target, candidate.load);
      r.final_load -= candidate.load;
      r.migrations.push_back({candidate.id, self, target, candidate.load});
      ++r.accepted;
      built = built && p.refresh == CmfRefresh::build_once;
    } else {
      ++r.rejected;
    }
  }
  return ref;
}

using GridParam =
    std::tuple<CriterionKind, CmfKind, CmfRefresh, OrderKind, std::uint64_t>;

class TransferGrid : public ::testing::TestWithParam<GridParam> {
protected:
  [[nodiscard]] LbParams params() const {
    auto const [criterion, cmf, refresh, order, seed] = GetParam();
    LbParams p;
    p.criterion = criterion;
    p.cmf = cmf;
    p.refresh = refresh;
    p.order = order;
    p.seed = seed;
    p.num_trials = 1;
    p.num_iterations = 1;
    return p;
  }
};

TEST_P(TransferGrid, StructuralInvariants) {
  auto const p = params();
  auto const states = random_states(std::get<4>(GetParam()));

  for (std::size_t instance = 0; instance < states.size(); ++instance) {
    auto const& [tasks, l_p, l_ave, knowledge_before] = states[instance];
    Knowledge knowledge = knowledge_before;

    Rng rng{std::get<4>(GetParam()) + instance};
    auto const result =
        run_transfer(p, /*self=*/0, tasks, l_p, l_ave, knowledge, rng);

    // (1) Every candidate attempt is classified exactly once.
    EXPECT_LE(result.accepted + result.rejected + result.no_target,
              tasks.size());
    EXPECT_EQ(result.accepted, result.migrations.size());

    // (2) Load bookkeeping: final load = initial − migrated sum.
    double migrated = 0.0;
    std::set<TaskId> seen;
    for (Migration const& m : result.migrations) {
      migrated += m.load;
      EXPECT_EQ(m.from, 0);
      EXPECT_NE(m.to, 0);
      EXPECT_TRUE(knowledge_before.contains(m.to));
      EXPECT_TRUE(seen.insert(m.task).second) << "task proposed twice";
    }
    EXPECT_NEAR(result.final_load, l_p - migrated, 1e-9);
    EXPECT_GE(result.final_load, -1e-9);

    // (3) Knowledge updated by exactly the accepted loads.
    for (auto const& e : knowledge_before.entries()) {
      double delta = 0.0;
      for (Migration const& m : result.migrations) {
        if (m.to == e.rank) {
          delta += m.load;
        }
      }
      EXPECT_NEAR(knowledge.load_of(e.rank), e.load + delta, 1e-9);
    }

    // (4) The transfer loop stops at the threshold when it can: if any
    // proposals were made, either the rank is no longer overloaded or
    // every candidate was tried.
    if (result.final_load > p.threshold * l_ave) {
      EXPECT_EQ(result.accepted + result.rejected + result.no_target,
                tasks.size());
    }
  }
}

TEST_P(TransferGrid, MatchesPerCandidateRebuild) {
  // run_transfer skips certified candidates and rebuilds the CMF only
  // after an accepted transfer; the decisions, the build count and the
  // RNG state must equal the literal per-candidate rebuild's bit for bit.
  auto const p = params();
  auto const states = random_states(std::get<4>(GetParam()));

  std::size_t near_balanced_tried = 0;
  std::size_t near_balanced_certified = 0;
  for (std::size_t instance = 0; instance < states.size(); ++instance) {
    auto const& st = states[instance];
    Knowledge knowledge = st.knowledge;
    Knowledge reference_knowledge = st.knowledge;
    Rng rng{std::get<4>(GetParam()) + instance};
    Rng reference_rng = rng;

    auto const result = run_transfer(p, /*self=*/0, st.tasks, st.l_p,
                                     st.l_ave, knowledge, rng);
    auto const [reference, certified] =
        reference_transfer(p, /*self=*/0, st.tasks, st.l_p, st.l_ave,
                           reference_knowledge, reference_rng);

    EXPECT_EQ(result.migrations, reference.migrations) << instance;
    EXPECT_EQ(result.accepted, reference.accepted) << instance;
    EXPECT_EQ(result.rejected, reference.rejected) << instance;
    EXPECT_EQ(result.no_target, reference.no_target) << instance;
    EXPECT_EQ(result.final_load, reference.final_load) << instance;
    EXPECT_EQ(result.cmf_rebuilds, reference.cmf_rebuilds) << instance;
    EXPECT_TRUE(std::ranges::equal(knowledge.entries(),
                                   reference_knowledge.entries()))
        << instance;
    EXPECT_EQ(rng(), reference_rng()) << instance;
    if (instance >= 20) {
      near_balanced_tried +=
          reference.accepted + reference.rejected + reference.no_target;
      near_balanced_certified += certified;
    }
  }
  // The near-balanced states exercise the certificate: most of their
  // candidates are certified (--gtest_output=json reports the counts).
  EXPECT_GT(2 * near_balanced_certified, near_balanced_tried);
  RecordProperty("near_balanced_certified",
                 std::to_string(near_balanced_certified));
  RecordProperty("near_balanced_tried", std::to_string(near_balanced_tried));
}

TEST_P(TransferGrid, DeterministicGivenSeed) {
  auto const p = params();
  std::vector<TaskEntry> tasks;
  Rng workload_rng{99};
  double l_p = 0.0;
  for (int i = 0; i < 25; ++i) {
    double const load = workload_rng.uniform(0.1, 1.5);
    tasks.push_back({static_cast<TaskId>(i), load});
    l_p += load;
  }
  double const l_ave = l_p / 6.0;
  Knowledge k1;
  for (int i = 1; i <= 8; ++i) {
    k1.insert(static_cast<RankId>(i), workload_rng.uniform(0.0, l_ave));
  }
  auto k2 = k1;
  Rng r1{std::get<4>(GetParam())};
  Rng r2{std::get<4>(GetParam())};
  auto const a = run_transfer(p, 0, tasks, l_p, l_ave, k1, r1);
  auto const b = run_transfer(p, 0, tasks, l_p, l_ave, k2, r2);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.rejected, b.rejected);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TransferGrid,
    ::testing::Combine(
        ::testing::Values(CriterionKind::original, CriterionKind::relaxed),
        ::testing::Values(CmfKind::original, CmfKind::modified),
        ::testing::Values(CmfRefresh::build_once, CmfRefresh::recompute),
        ::testing::Values(OrderKind::arbitrary, OrderKind::load_intensive,
                          OrderKind::fewest_migrations, OrderKind::lightest),
        ::testing::Values(7u, 77u)));

} // namespace
} // namespace tlb::lb
