#include "runtime/object_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "runtime/fault_hook.hpp"

namespace tlb::rt {
namespace {

class Blob final : public Migratable {
public:
  explicit Blob(std::size_t size, int tag = 0) : size_{size}, tag_{tag} {}
  [[nodiscard]] std::size_t wire_bytes() const override { return size_; }
  [[nodiscard]] int tag() const { return tag_; }

private:
  std::size_t size_;
  int tag_;
};

RuntimeConfig config(RankId ranks, int threads = 1) {
  RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.num_threads = threads;
  return cfg;
}

/// An installed fault hook switches migrate() to its resilient commit
/// protocol; this one drops every migration message when `drop` is set and
/// otherwise delivers everything.
class MigrationDropper final : public FaultHook {
public:
  explicit MigrationDropper(bool drop) : drop_{drop} {}
  [[nodiscard]] FaultDecision on_send(RankId, RankId,
                                      MessageKind kind) override {
    bool const dropped = drop_ && kind == MessageKind::migration;
    return {dropped ? FaultAction::drop : FaultAction::deliver, 0};
  }
  [[nodiscard]] DrainGate on_drain(RankId, std::uint64_t) override {
    return DrainGate::open;
  }

private:
  bool drop_;
};

int tag_at(ObjectStore const& store, RankId rank, TaskId id) {
  auto const* blob = dynamic_cast<Blob const*>(store.find(rank, id));
  return blob == nullptr ? -1 : blob->tag();
}

TEST(ObjectStore, CreateAndFind) {
  ObjectStore store{4};
  store.create(1, 100, std::make_unique<Blob>(64, 7));
  EXPECT_EQ(store.owner(100), 1);
  auto* blob = dynamic_cast<Blob*>(store.find(1, 100));
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->tag(), 7);
  EXPECT_EQ(store.find(0, 100), nullptr);
  EXPECT_EQ(store.owner(999), invalid_rank);
}

TEST(ObjectStore, TasksOnReportsSorted) {
  ObjectStore store{2};
  store.create(0, 5, std::make_unique<Blob>(1));
  store.create(0, 2, std::make_unique<Blob>(1));
  store.create(1, 3, std::make_unique<Blob>(1));
  auto const tasks = store.tasks_on(0);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0], 2);
  EXPECT_EQ(tasks[1], 5);
  EXPECT_EQ(store.total_tasks(), 3u);
}

TEST(ObjectStore, MigrateMovesPayload) {
  Runtime rt{config(4)};
  ObjectStore store{4};
  store.create(0, 10, std::make_unique<Blob>(128, 42));
  auto const bytes = store.migrate(rt, {Migration{10, 0, 3, 1.0}});
  EXPECT_EQ(bytes, 128u);
  EXPECT_EQ(store.owner(10), 3);
  EXPECT_EQ(store.find(0, 10), nullptr);
  auto* blob = dynamic_cast<Blob*>(store.find(3, 10));
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->tag(), 42);
}

TEST(ObjectStore, SelfMigrationIsNoop) {
  Runtime rt{config(2)};
  ObjectStore store{2};
  store.create(1, 7, std::make_unique<Blob>(32));
  auto const bytes = store.migrate(rt, {Migration{7, 1, 1, 1.0}});
  EXPECT_EQ(bytes, 0u);
  EXPECT_EQ(store.owner(7), 1);
  EXPECT_EQ(store.migration_count(), 0u);
}

TEST(ObjectStore, BatchMigrationAccounting) {
  Runtime rt{config(4)};
  ObjectStore store{4};
  store.create(0, 1, std::make_unique<Blob>(10));
  store.create(0, 2, std::make_unique<Blob>(20));
  store.create(1, 3, std::make_unique<Blob>(30));
  std::vector<Migration> const migrations{
      {1, 0, 2, 1.0}, {2, 0, 3, 1.0}, {3, 1, 0, 1.0}};
  auto const bytes = store.migrate(rt, migrations);
  EXPECT_EQ(bytes, 60u);
  EXPECT_EQ(store.migration_bytes(), 60u);
  EXPECT_EQ(store.migration_count(), 3u);
  EXPECT_EQ(store.owner(1), 2);
  EXPECT_EQ(store.owner(2), 3);
  EXPECT_EQ(store.owner(3), 0);
}

TEST(ObjectStore, ChainedMigrationsAcrossInvocations) {
  Runtime rt{config(3)};
  ObjectStore store{3};
  store.create(0, 1, std::make_unique<Blob>(8, 5));
  (void)store.migrate(rt, {Migration{1, 0, 1, 1.0}});
  (void)store.migrate(rt, {Migration{1, 1, 2, 1.0}});
  EXPECT_EQ(store.owner(1), 2);
  auto* blob = dynamic_cast<Blob*>(store.find(2, 1));
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->tag(), 5);
}

TEST(ObjectStore, MigrationTrafficVisibleInRuntimeStats) {
  Runtime rt{config(2)};
  ObjectStore store{2};
  store.create(0, 1, std::make_unique<Blob>(512));
  rt.reset_stats();
  (void)store.migrate(rt, {Migration{1, 0, 1, 1.0}});
  EXPECT_GE(rt.stats().bytes, 512u);
}

TEST(ObjectStore, UnknownIdsHaveNoOwner) {
  ObjectStore store{2};
  store.create(0, 4, std::make_unique<Blob>(1));
  EXPECT_EQ(store.owner(invalid_task), invalid_rank);
  EXPECT_EQ(store.owner(2), invalid_rank); // below the largest, never created
  EXPECT_EQ(store.owner(5), invalid_rank); // past the largest
  EXPECT_EQ(store.owner(1'000'000), invalid_rank);
  EXPECT_EQ(store.find(0, invalid_task), nullptr);
  EXPECT_EQ(store.find(0, 2), nullptr);
  EXPECT_EQ(store.find(0, 5), nullptr);
}

TEST(ObjectStore, SparseIdsWork) {
  Runtime rt{config(3)};
  ObjectStore store{3};
  store.create(2, 100, std::make_unique<Blob>(8, 100));
  store.create(0, 5, std::make_unique<Blob>(8, 5));
  store.create(0, 2, std::make_unique<Blob>(8, 2));
  EXPECT_EQ(store.total_tasks(), 3u);
  EXPECT_EQ(store.owner(2), 0);
  EXPECT_EQ(store.owner(5), 0);
  EXPECT_EQ(store.owner(100), 2);
  EXPECT_EQ(store.owner(50), invalid_rank);
  EXPECT_EQ(tag_at(store, 2, 100), 100);
  EXPECT_EQ(store.tasks_on(0), (std::vector<TaskId>{2, 5}));

  (void)store.migrate(rt, {Migration{100, 2, 0, 1.0}, Migration{2, 0, 1, 1.0}});
  EXPECT_EQ(store.tasks_on(0), (std::vector<TaskId>{5, 100}));
  EXPECT_EQ(store.tasks_on(1), (std::vector<TaskId>{2}));
  EXPECT_TRUE(store.tasks_on(2).empty());
  EXPECT_EQ(tag_at(store, 0, 100), 100);
  EXPECT_EQ(tag_at(store, 1, 2), 2);
}

TEST(ObjectStore, TasksOnSortedAfterOutOfOrderInstalls) {
  // One origin sends its tasks in descending id order, so per-sender FIFO
  // delivers them to the destination out of id order, interleaved with
  // ids the destination already holds.
  Runtime rt{config(4)};
  ObjectStore store{4};
  for (TaskId const id : {1, 3, 4, 6, 9}) {
    store.create(0, id, std::make_unique<Blob>(8, static_cast<int>(id)));
  }
  for (TaskId const id : {2, 5}) {
    store.create(3, id, std::make_unique<Blob>(8, static_cast<int>(id)));
  }
  std::vector<Migration> const batch{{9, 0, 3, 1.0},
                                     {6, 0, 3, 1.0},
                                     {1, 0, 3, 1.0},
                                     {4, 0, 3, 1.0}};
  (void)store.migrate(rt, batch);
  EXPECT_EQ(store.tasks_on(3), (std::vector<TaskId>{1, 2, 4, 5, 6, 9}));
  EXPECT_EQ(store.tasks_on(0), (std::vector<TaskId>{3}));
  for (TaskId const id : {1, 2, 4, 5, 6, 9}) {
    EXPECT_EQ(tag_at(store, 3, id), static_cast<int>(id));
  }
  EXPECT_EQ(tag_at(store, 0, 3), 3);
}

class ObjectStoreMigratePath : public ::testing::TestWithParam<bool> {};

TEST_P(ObjectStoreMigratePath, PayloadLeavesOriginAndArrivesAtDestination) {
  bool const fault_active = GetParam();
  Runtime rt{config(4)};
  MigrationDropper deliver_all{false};
  if (fault_active) {
    rt.set_fault_hook(&deliver_all);
  }
  ObjectStore store{4};
  for (TaskId t = 0; t < 8; ++t) {
    store.create(static_cast<RankId>(t % 2), t,
                 std::make_unique<Blob>(16, static_cast<int>(t)));
  }
  std::vector<Migration> batch;
  for (TaskId t = 0; t < 8; ++t) {
    batch.push_back(Migration{t, static_cast<RankId>(t % 2),
                              static_cast<RankId>(3 - t % 3), 1.0});
  }
  auto const bytes = store.migrate(rt, batch);
  EXPECT_TRUE(store.failed_migrations().empty());
  std::size_t expected_bytes = 0;
  for (Migration const& m : batch) {
    EXPECT_EQ(store.owner(m.task), m.to);
    EXPECT_EQ(tag_at(store, m.to, m.task), static_cast<int>(m.task));
    if (m.from != m.to) {
      EXPECT_EQ(store.find(m.from, m.task), nullptr);
      expected_bytes += 16;
    }
  }
  EXPECT_EQ(bytes, expected_bytes);
  for (RankId r = 0; r < 4; ++r) {
    auto const ids = store.tasks_on(r);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  }
  rt.set_fault_hook(nullptr);
}

std::string path_name(::testing::TestParamInfo<bool> const& param) {
  return param.param ? "fault_active" : "legacy";
}

INSTANTIATE_TEST_SUITE_P(LegacyAndResilient, ObjectStoreMigratePath,
                         ::testing::Values(false, true), path_name);

TEST(ObjectStore, RolledBackTaskReturnsToSortedPosition) {
  Runtime rt{config(2)};
  MigrationDropper drop_all{true};
  rt.set_fault_hook(&drop_all);
  ObjectStore store{2};
  for (TaskId const id : {2, 5, 8}) {
    store.create(0, id, std::make_unique<Blob>(8, static_cast<int>(id)));
  }
  auto const bytes = store.migrate(rt, {Migration{5, 0, 1, 1.0}});
  EXPECT_EQ(bytes, 0u);
  ASSERT_EQ(store.failed_migrations().size(), 1u);
  EXPECT_EQ(store.owner(5), 0);
  EXPECT_EQ(store.tasks_on(0), (std::vector<TaskId>{2, 5, 8}));
  EXPECT_TRUE(store.tasks_on(1).empty());
  EXPECT_EQ(tag_at(store, 0, 5), 5);
  EXPECT_EQ(store.find(1, 5), nullptr);
  rt.set_fault_hook(nullptr);
}

TEST(ObjectStoreDeath, NegativeTaskIdAborts) {
  ObjectStore store{2};
  EXPECT_DEATH(store.create(0, -7, std::make_unique<Blob>(1)),
               "precondition");
  EXPECT_DEATH(store.create(0, invalid_task, std::make_unique<Blob>(1)),
               "precondition");
}

TEST(ObjectStoreDeath, DuplicateTaskIdAborts) {
  ObjectStore store{2};
  store.create(0, 1, std::make_unique<Blob>(1));
  EXPECT_DEATH(store.create(1, 1, std::make_unique<Blob>(1)),
               "precondition");
}

TEST(ObjectStoreDeath, MigrateWithWrongSourceAborts) {
  Runtime rt{config(2)};
  ObjectStore store{2};
  store.create(0, 1, std::make_unique<Blob>(1));
  EXPECT_DEATH((void)store.migrate(rt, {Migration{1, 1, 0, 1.0}}),
               "precondition");
}

} // namespace
} // namespace tlb::rt
