/// \file gossip_delta_fault_test.cpp
/// The delta wire plane under the fault plane: drops, duplicates, and
/// delays on gossip traffic must never corrupt the protocol. A delta is
/// the run the sender appended since its own previous forward, decided
/// at the sender alone, so no injected fault can desynchronize it; a
/// dropped delta merely leaves receiver knowledge partial (which gossip
/// tolerates by design), a duplicated one re-merges idempotently, and a
/// delayed one arrives late but intact. Every case must still produce an
/// internally consistent, load-conserving plan and a live runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>

#include "fault/fault_config.hpp"
#include "fault/fault_plane.hpp"
#include "lb/strategy/gossip_strategy.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace tlb::fault {
namespace {

FaultConfig gossip_faults(double drop, double dup, double delay) {
  FaultConfig cfg;
  cfg.name = "gossip-delta-test";
  auto& k = cfg.kinds[static_cast<std::size_t>(rt::MessageKind::gossip)];
  k.drop = drop;
  k.duplicate = dup;
  k.delay = delay;
  k.delay_min_polls = 1;
  k.delay_max_polls = 6;
  return cfg;
}

lb::StrategyInput clustered(RankId ranks, RankId loaded, int per_rank,
                            std::uint64_t seed) {
  lb::StrategyInput input;
  input.tasks.resize(static_cast<std::size_t>(ranks));
  Rng rng{seed};
  TaskId id = 0;
  for (RankId r = 0; r < loaded; ++r) {
    for (int i = 0; i < per_rank; ++i) {
      input.tasks[static_cast<std::size_t>(r)].push_back(
          {id++, rng.uniform(0.5, 1.5)});
    }
  }
  return input;
}

void expect_valid_plan(lb::StrategyInput const& input,
                       lb::StrategyResult const& result) {
  std::map<TaskId, RankId> home;
  double total_in = 0.0;
  for (std::size_t r = 0; r < input.tasks.size(); ++r) {
    for (auto const& t : input.tasks[r]) {
      home[t.id] = static_cast<RankId>(r);
      total_in += t.load;
    }
  }
  std::set<TaskId> moved;
  for (Migration const& m : result.migrations) {
    ASSERT_TRUE(home.count(m.task));
    EXPECT_EQ(home[m.task], m.from);
    EXPECT_NE(m.from, m.to);
    EXPECT_TRUE(moved.insert(m.task).second) << "task migrated twice";
  }
  double total_out = 0.0;
  for (double const l : result.new_rank_loads) {
    total_out += l;
  }
  EXPECT_NEAR(total_in, total_out, 1e-6 * std::max(1.0, total_in));
}

void run_faulted_delta_case(double drop, double dup, double delay,
                            std::uint64_t seed) {
  SCOPED_TRACE("drop=" + std::to_string(drop) +
               " dup=" + std::to_string(dup) +
               " delay=" + std::to_string(delay) +
               " seed=" + std::to_string(seed));
  RankId const p = 32;
  rt::RuntimeConfig cfg;
  cfg.num_ranks = p;
  cfg.seed = seed;
  cfg.quiesce_poll_budget = 2'000'000;
  rt::Runtime rt{cfg};
  auto const input = clustered(p, 4, 30, seed ^ 0x5eed);
  double const before = imbalance(input.rank_loads());

  auto plane = install_fault_plane(rt, gossip_faults(drop, dup, delay));
  lb::GossipStrategy strategy{lb::GossipStrategy::Flavor::tempered};
  auto params = lb::LbParams::tempered();
  params.num_trials = 2;
  params.num_iterations = 3;
  params.gossip_wire = lb::GossipWire::delta;
  auto const result = strategy.balance(rt, input, params);

  expect_valid_plan(input, result);
  // Gossip loss only makes knowledge partial; the transfer stage still
  // runs on whatever arrived, so the plan must not be degenerate.
  EXPECT_LE(result.achieved_imbalance, before);

  // Liveness after the faulted cycle: fresh work still flows.
  rt.set_fault_hook(nullptr);
  std::atomic<int> delivered{0};
  rt.post_all([&delivered](rt::RankContext&) { ++delivered; });
  EXPECT_TRUE(rt.run_until_quiescent());
  EXPECT_EQ(delivered.load(), static_cast<int>(p));
}

TEST(GossipDeltaFaultTest, SurvivesDroppedDeltas) {
  run_faulted_delta_case(0.15, 0.0, 0.0, 0xd401);
}

TEST(GossipDeltaFaultTest, SurvivesDuplicatedDeltas) {
  run_faulted_delta_case(0.0, 0.5, 0.0, 0xd402);
}

TEST(GossipDeltaFaultTest, SurvivesDelayedDeltas) {
  run_faulted_delta_case(0.0, 0.0, 0.4, 0xd403);
}

TEST(GossipDeltaFaultTest, SurvivesCombinedGossipChaos) {
  run_faulted_delta_case(0.1, 0.25, 0.25, 0xd404);
}

TEST(GossipDeltaFaultTest, DuplicatesAloneCannotChangeTheOutcome) {
  // Merging a payload twice is a set-union no-op and a delta's contents
  // are fixed at the sender, so duplicates cannot corrupt knowledge — but
  // in multi-round cascades they can still shift scheduler batch
  // boundaries, reordering cross-sender arrivals and thereby the snapshots
  // later forwards ship. Single-round gossip has no such timing channel:
  // every payload is fixed at seed time and final knowledge is a pure set
  // union, so a duplicate-only run must reproduce the duplicate-free
  // result exactly. Both runs install a plane (the baseline at zero
  // rates): installing one switches the transfer stage onto its
  // resilient path, so only like-for-like runs are bit-comparable.
  RankId const p = 32;
  auto const input = clustered(p, 4, 30, 0xabba);
  auto run_with = [&](double dup) {
    rt::RuntimeConfig cfg;
    cfg.num_ranks = p;
    cfg.seed = 777;
    rt::Runtime rt{cfg};
    auto plane = install_fault_plane(rt, gossip_faults(0.0, dup, 0.0));
    lb::GossipStrategy strategy{lb::GossipStrategy::Flavor::tempered};
    auto params = lb::LbParams::tempered();
    params.num_trials = 1;
    params.num_iterations = 2;
    params.rounds = 1;
    params.gossip_wire = lb::GossipWire::delta;
    auto const result = strategy.balance(rt, input, params);
    rt.set_fault_hook(nullptr);
    return result;
  };
  auto const clean = run_with(0.0);
  auto const duplicated = run_with(1.0);
  EXPECT_EQ(clean.migrations, duplicated.migrations);
  EXPECT_EQ(clean.achieved_imbalance, duplicated.achieved_imbalance);
}

} // namespace
} // namespace tlb::fault
