#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_config.hpp"
#include "fault/fault_plane.hpp"
#include "lb/strategy/gossip_strategy.hpp"
#include "runtime/delivery.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace tlb::fault {
namespace {

class Blob final : public rt::Migratable {
public:
  explicit Blob(std::size_t size, int tag = 0) : size_{size}, tag_{tag} {}
  [[nodiscard]] std::size_t wire_bytes() const override { return size_; }
  [[nodiscard]] int tag() const { return tag_; }

private:
  std::size_t size_;
  int tag_;
};

rt::RuntimeConfig config(RankId ranks, std::uint64_t seed = 0xfeed,
                         int threads = 1) {
  rt::RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.num_threads = threads;
  cfg.seed = seed;
  return cfg;
}

FaultConfig migration_faults(double drop, double dup, double delay) {
  FaultConfig cfg;
  cfg.name = "migration-test";
  auto& k = cfg.kinds[static_cast<std::size_t>(rt::MessageKind::migration)];
  k.drop = drop;
  k.duplicate = dup;
  k.delay = delay;
  return cfg;
}

TEST(ResilientMigrationTest, DuplicatedCommitIsANoOp) {
  rt::Runtime rt{config(4)};
  rt::ObjectStore store{4};
  for (TaskId t = 0; t < 12; ++t) {
    store.create(static_cast<RankId>(t % 2), t,
                 std::make_unique<Blob>(64, static_cast<int>(t)));
  }
  auto plane = install_fault_plane(rt, migration_faults(0.0, 1.0, 0.0));
  std::vector<Migration> batch;
  for (TaskId t = 0; t < 12; ++t) {
    batch.push_back(Migration{t, static_cast<RankId>(t % 2),
                              static_cast<RankId>(2 + t % 2), 1.0});
  }
  auto const bytes = store.migrate(rt, batch);
  // Every payload message was duplicated, yet the dedup table makes the
  // second commit a no-op: each task lands exactly once.
  EXPECT_EQ(bytes, 12u * 64u);
  EXPECT_TRUE(store.failed_migrations().empty());
  EXPECT_EQ(store.total_tasks(), 12u);
  for (Migration const& m : batch) {
    EXPECT_EQ(store.owner(m.task), m.to);
    EXPECT_EQ(store.find(m.from, m.task), nullptr);
    auto* blob = dynamic_cast<Blob*>(store.find(m.to, m.task));
    ASSERT_NE(blob, nullptr);
    EXPECT_EQ(blob->tag(), static_cast<int>(m.task));
  }
  auto const stats = rt.stats();
  EXPECT_GE(stats.kind_duplicated[static_cast<std::size_t>(
                rt::MessageKind::migration)],
            12u);
  rt.set_fault_hook(nullptr);
}

TEST(ResilientMigrationTest, RetryExhaustionRollsBackWithoutWedging) {
  rt::Runtime rt{config(4)};
  rt::ObjectStore store{4};
  store.create(0, 7, std::make_unique<Blob>(256, 7));
  store.create(1, 8, std::make_unique<Blob>(128, 8));
  auto plane = install_fault_plane(rt, migration_faults(1.0, 0.0, 0.0));
  auto const bytes =
      store.migrate(rt, {Migration{7, 0, 3, 1.0}, Migration{8, 1, 2, 1.0}});
  // Every delivery attempt was eaten; migrate() must return (the retry
  // budget bounds it), roll both migrations back, and leave the directory
  // and payloads exactly where they started.
  EXPECT_EQ(bytes, 0u);
  ASSERT_EQ(store.failed_migrations().size(), 2u);
  EXPECT_EQ(store.owner(7), 0);
  EXPECT_EQ(store.owner(8), 1);
  EXPECT_NE(store.find(0, 7), nullptr);
  EXPECT_NE(store.find(1, 8), nullptr);
  EXPECT_EQ(store.find(3, 7), nullptr);
  EXPECT_EQ(store.find(2, 8), nullptr);
  EXPECT_EQ(store.total_tasks(), 2u);
  auto const stats = rt.stats();
  auto const retry_budget =
      static_cast<std::size_t>(rt::kMaxDeliveryAttempts - 1);
  EXPECT_EQ(stats.kind_retried[static_cast<std::size_t>(
                rt::MessageKind::migration)],
            2u * retry_budget);
  // The runtime is not wedged: a fresh round still quiesces.
  std::atomic<int> delivered{0};
  rt.post(0, [&delivered](rt::RankContext&) { ++delivered; });
  EXPECT_TRUE(rt.run_until_quiescent());
  EXPECT_EQ(delivered.load(), 1);
  rt.set_fault_hook(nullptr);
}

/// Drops the first migration message `rank` sends (a destination's first
/// ack) and delivers everything else.
class FirstAckDropper final : public rt::FaultHook {
public:
  explicit FirstAckDropper(RankId rank) : rank_{rank} {}
  [[nodiscard]] rt::FaultDecision on_send(RankId from, RankId,
                                          rt::MessageKind kind) override {
    if (from == rank_ && kind == rt::MessageKind::migration &&
        !dropped_.exchange(true)) {
      return {rt::FaultAction::drop, 0};
    }
    return {};
  }
  [[nodiscard]] rt::DrainGate on_drain(RankId, std::uint64_t) override {
    return rt::DrainGate::open;
  }

private:
  RankId rank_;
  std::atomic<bool> dropped_{false};
};

TEST(ResilientMigrationTest, LostAckIsRetriedAndDeduplicated) {
  for (int const threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    rt::Runtime rt{config(4, 0xfeed, threads)};
    rt::ObjectStore store{4};
    store.create(0, 3, std::make_unique<Blob>(40, 3));
    FirstAckDropper drop_ack{2};
    rt.set_fault_hook(&drop_ack);
    auto const bytes = store.migrate(rt, {Migration{3, 0, 2, 1.0}});
    // The payload landed but its ack did not: the origin resends, the
    // destination recognises the sequence and re-acks without installing
    // twice, and the commit lands exactly once.
    EXPECT_EQ(bytes, 40u);
    EXPECT_TRUE(store.failed_migrations().empty());
    EXPECT_EQ(store.owner(3), 2);
    auto* blob = dynamic_cast<Blob*>(store.find(2, 3));
    ASSERT_NE(blob, nullptr);
    EXPECT_EQ(blob->tag(), 3);
    EXPECT_EQ(store.total_tasks(), 1u);
    for (RankId r = 0; r < 4; ++r) {
      EXPECT_EQ(store.tasks_on(r).size(), r == 2 ? 1u : 0u);
    }
    auto const stats = rt.stats();
    auto const migration = static_cast<std::size_t>(rt::MessageKind::migration);
    EXPECT_EQ(stats.kind_dropped[migration], 1u);
    EXPECT_GE(stats.kind_retried[migration], 1u);
    rt.set_fault_hook(nullptr);
  }
}

TEST(ResilientMigrationTest, LossyNetworkEventuallyCommitsViaRetry) {
  rt::Runtime rt{config(8, 0x5eed01)};
  rt::ObjectStore store{8};
  std::size_t const tasks = 64;
  for (TaskId t = 0; t < static_cast<TaskId>(tasks); ++t) {
    store.create(static_cast<RankId>(t % 4), t, std::make_unique<Blob>(32));
  }
  // 30% loss per attempt: with the default 4-attempt budget the expected
  // survival rate is 1 - 0.3^4 ≈ 99.2% per migration; either outcome is
  // acceptable, but bookkeeping must stay exact.
  auto plane = install_fault_plane(rt, migration_faults(0.3, 0.0, 0.0));
  std::vector<Migration> batch;
  for (TaskId t = 0; t < static_cast<TaskId>(tasks); ++t) {
    batch.push_back(Migration{t, static_cast<RankId>(t % 4),
                              static_cast<RankId>(4 + t % 4), 1.0});
  }
  (void)store.migrate(rt, batch);
  EXPECT_EQ(store.total_tasks(), tasks);
  std::size_t committed = 0;
  for (Migration const& m : batch) {
    RankId const owner = store.owner(m.task);
    if (owner == m.to) {
      ++committed;
      EXPECT_NE(store.find(m.to, m.task), nullptr);
      EXPECT_EQ(store.find(m.from, m.task), nullptr);
    } else {
      EXPECT_EQ(owner, m.from);
      EXPECT_NE(store.find(m.from, m.task), nullptr);
    }
  }
  EXPECT_EQ(committed + store.failed_migrations().size(), tasks);
  EXPECT_GT(committed, tasks / 2) << "retry should recover most losses";
  rt.set_fault_hook(nullptr);
}

TEST(ResilientMigrationTest, PureDelayNeverLosesACommit) {
  rt::Runtime rt{config(4)};
  rt::ObjectStore store{4};
  for (TaskId t = 0; t < 16; ++t) {
    store.create(0, t, std::make_unique<Blob>(16));
  }
  auto plane = install_fault_plane(rt, migration_faults(0.0, 0.0, 1.0));
  std::vector<Migration> batch;
  for (TaskId t = 0; t < 16; ++t) {
    batch.push_back(Migration{t, 0, static_cast<RankId>(1 + t % 3), 1.0});
  }
  (void)store.migrate(rt, batch);
  EXPECT_TRUE(store.failed_migrations().empty());
  for (Migration const& m : batch) {
    EXPECT_EQ(store.owner(m.task), m.to);
  }
  rt.set_fault_hook(nullptr);
}

TEST(ResilientTransferTest, TotalTransferLossYieldsNoMigrationsNoHang) {
  rt::Runtime rt{config(16, 0xabba)};
  FaultConfig cfg;
  cfg.name = "transfer-blackhole";
  auto& k = cfg.kinds[static_cast<std::size_t>(rt::MessageKind::transfer)];
  k.drop = 1.0;
  auto plane = install_fault_plane(rt, cfg);

  lb::StrategyInput input;
  input.tasks.resize(16);
  Rng rng{11};
  TaskId id = 0;
  for (RankId r = 0; r < 4; ++r) {
    for (int i = 0; i < 20; ++i) {
      input.tasks[static_cast<std::size_t>(r)].push_back(
          {id++, rng.uniform(0.5, 1.5)});
    }
  }
  lb::GossipStrategy strategy{lb::GossipStrategy::Flavor::tempered};
  auto params = lb::LbParams::tempered();
  params.num_trials = 1;
  params.num_iterations = 2;
  auto const result = strategy.balance(rt, input, params);
  // Every transfer proposal (and every ack) was dropped: all proposals
  // exhaust their retries and the tasks bounce back to their origins, so
  // no iteration ever improves on the initial placement and the strategy
  // must NACK out with zero migrations rather than hang or lose tasks.
  EXPECT_TRUE(result.migrations.empty());
  auto const stats = rt.stats();
  EXPECT_GT(stats.kind_retried[static_cast<std::size_t>(
                rt::MessageKind::transfer)],
            0u);
  rt.set_fault_hook(nullptr);
}

TEST(ResilientTransferTest, BalanceUnderChaosProducesConsistentMigrations) {
  rt::Runtime rt{config(16, 0x77)};
  auto plane = install_fault_plane(rt, FaultConfig::chaos());

  lb::StrategyInput input;
  input.tasks.resize(16);
  Rng rng{5};
  TaskId id = 0;
  for (RankId r = 0; r < 4; ++r) {
    for (int i = 0; i < 25; ++i) {
      input.tasks[static_cast<std::size_t>(r)].push_back(
          {id++, rng.uniform(0.5, 1.5)});
    }
  }
  lb::GossipStrategy strategy{lb::GossipStrategy::Flavor::tempered};
  auto params = lb::LbParams::tempered();
  params.num_trials = 2;
  params.num_iterations = 4;
  auto const result = strategy.balance(rt, input, params);
  // Whatever the fault plane did, the committed plan must be internally
  // consistent: each migration's `from` is the task's true origin and no
  // task moves twice.
  std::map<TaskId, RankId> home;
  for (std::size_t r = 0; r < input.tasks.size(); ++r) {
    for (auto const& t : input.tasks[r]) {
      home[t.id] = static_cast<RankId>(r);
    }
  }
  std::set<TaskId> seen;
  for (Migration const& m : result.migrations) {
    ASSERT_TRUE(home.count(m.task) == 1);
    EXPECT_EQ(home[m.task], m.from);
    EXPECT_NE(m.from, m.to);
    EXPECT_TRUE(seen.insert(m.task).second);
  }
  rt.set_fault_hook(nullptr);
}

} // namespace
} // namespace tlb::fault
