/// Chaos matrix: sweep seeds × fault profiles over a full LB cycle
/// (gossip balance + payload migration) and assert the system-level
/// guarantees the fault plane must never break:
///   - eventual quiescence (no run wedges; the poll budget turns a wedge
///     into a reported abort, and we assert it never fires),
///   - task conservation (nothing lost, nothing duplicated),
///   - load conservation (the sum of task loads is invariant),
///   - directory/residency agreement after migration.
/// Under -DTLB_AUDIT=ON (the CI chaos job) the runtime and object-store
/// auditors additionally cross-check every epoch from the inside.
///
/// The seed count scales with the TLB_CHAOS_SEEDS environment variable
/// (default 3); failures print the (profile, seed) pair so a failing cell
/// reproduces with a one-line test filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_config.hpp"
#include "fault/fault_plane.hpp"
#include "lb/strategy/gossip_strategy.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace tlb::fault {
namespace {

class Blob final : public rt::Migratable {
public:
  explicit Blob(std::size_t size) : size_{size} {}
  [[nodiscard]] std::size_t wire_bytes() const override { return size_; }

private:
  std::size_t size_;
};

int seeds_from_env() {
  if (char const* env = std::getenv("TLB_CHAOS_SEEDS")) {
    int const n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  return 3;
}

void run_chaos_case(std::string_view profile_name, std::uint64_t seed,
                    int threads) {
  SCOPED_TRACE(std::string{"profile="} + std::string{profile_name} +
               " seed=" + std::to_string(seed) +
               " threads=" + std::to_string(threads));
  RankId const p = 16;
  rt::RuntimeConfig cfg;
  cfg.num_ranks = p;
  cfg.num_threads = threads;
  cfg.seed = seed;
  // Liveness valve: if a protocol ever wedged, the budget would flush and
  // the affected round would abort — the asserts below would then catch
  // any conservation fallout. A hang can never escape the harness.
  cfg.quiesce_poll_budget = 2'000'000;
  rt::Runtime rt{cfg};
  rt::ObjectStore store{p};

  // Clustered workload: all tasks on the first 4 ranks, skewed loads.
  lb::StrategyInput input;
  input.tasks.resize(static_cast<std::size_t>(p));
  Rng rng{derive_seed(seed, 0x9a5)};
  std::size_t const total_tasks = 96;
  double total_load = 0.0;
  for (TaskId t = 0; t < static_cast<TaskId>(total_tasks); ++t) {
    auto const home = static_cast<RankId>(t % 4);
    double const load = rng.uniform(0.25, 2.0);
    total_load += load;
    store.create(home, t, std::make_unique<Blob>(48));
    input.tasks[static_cast<std::size_t>(home)].push_back({t, load});
  }

  auto plane = install_fault_plane(rt, FaultConfig::profile(profile_name));

  lb::GossipStrategy strategy{lb::GossipStrategy::Flavor::tempered};
  auto params = lb::LbParams::tempered();
  params.num_trials = 2;
  params.num_iterations = 3;
  auto const result = strategy.balance(rt, input, params);

  // The committed plan must be internally consistent regardless of what
  // the fault plane injected.
  std::set<TaskId> moved;
  for (Migration const& m : result.migrations) {
    EXPECT_EQ(store.owner(m.task), m.from);
    EXPECT_NE(m.from, m.to);
    EXPECT_TRUE(moved.insert(m.task).second);
  }

  (void)store.migrate(rt, result.migrations);

  // Task conservation + directory/residency agreement.
  EXPECT_EQ(store.total_tasks(), total_tasks);
  std::size_t resident = 0;
  for (RankId r = 0; r < p; ++r) {
    resident += store.tasks_on(r).size();
  }
  EXPECT_EQ(resident, total_tasks);
  std::map<TaskId, double> load_of;
  for (auto const& tasks : input.tasks) {
    for (auto const& t : tasks) {
      load_of[t.id] = t.load;
    }
  }
  double resident_load = 0.0;
  for (TaskId t = 0; t < static_cast<TaskId>(total_tasks); ++t) {
    RankId const owner = store.owner(t);
    ASSERT_NE(owner, invalid_rank);
    EXPECT_NE(store.find(owner, t), nullptr);
    resident_load += load_of[t];
  }
  EXPECT_NEAR(resident_load, total_load, 1e-9 * total_load);

  // Eventual quiescence: the runtime is live after the whole cycle.
  std::atomic<int> delivered{0};
  rt.post_all([&delivered](rt::RankContext&) { ++delivered; });
  EXPECT_TRUE(rt.run_until_quiescent());
  EXPECT_GT(delivered.load(), 0);

  rt.set_fault_hook(nullptr);
}

TEST(ChaosMatrix, SweepSeedsTimesProfiles) {
  int const seeds = seeds_from_env();
  for (auto const profile : FaultConfig::profile_names()) {
    if (profile == "none") {
      continue; // the fault-free column is the whole rest of the suite
    }
    for (int s = 0; s < seeds; ++s) {
      run_chaos_case(profile,
                     0x9e00u + 0x51u * static_cast<std::uint64_t>(s),
                     /*threads=*/1);
    }
  }
}

TEST(ChaosMatrix, ThreadedDriverSurvivesChaos) {
  int const seeds = std::min(seeds_from_env(), 3);
  for (int s = 0; s < seeds; ++s) {
    run_chaos_case("chaos", 0x7000u + static_cast<std::uint64_t>(s),
                   /*threads=*/4);
  }
}

TEST(ChaosMatrix, CrashProfileNeverWedgesMigration) {
  // The crash column, but aimed straight at migration: the destination
  // rank is dead, so every payload send is refused and each migration
  // must roll back cleanly.
  rt::RuntimeConfig cfg;
  cfg.num_ranks = 4;
  cfg.seed = 0xdead;
  rt::Runtime rt{cfg};
  rt::ObjectStore store{4};
  for (TaskId t = 0; t < 8; ++t) {
    store.create(0, t, std::make_unique<Blob>(16));
  }
  FaultConfig chaos_cfg;
  chaos_cfg.crash_rank = 1;
  chaos_cfg.crash_at_poll = 0;
  auto plane = install_fault_plane(rt, chaos_cfg);
  std::vector<Migration> batch;
  for (TaskId t = 0; t < 8; ++t) {
    batch.push_back(Migration{t, 0, 1, 1.0});
  }
  (void)store.migrate(rt, batch);
  EXPECT_EQ(store.failed_migrations().size(), 8u);
  EXPECT_EQ(store.total_tasks(), 8u);
  for (TaskId t = 0; t < 8; ++t) {
    EXPECT_EQ(store.owner(t), 0);
    EXPECT_NE(store.find(0, t), nullptr);
  }
  rt.set_fault_hook(nullptr);
}

} // namespace
} // namespace tlb::fault
