#include "runtime/object_store.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/tracer.hpp"
#include "runtime/delivery.hpp"
#include "support/check.hpp"

namespace tlb::rt {

namespace {

/// First slot of an id-sorted table whose id is not below `id`.
template <class Table> auto lower_bound_id(Table& table, TaskId id) {
  return std::lower_bound(
      table.begin(), table.end(), id,
      [](auto const& slot, TaskId key) { return slot.id < key; });
}

} // namespace

ObjectStore::ObjectStore(RankId num_ranks)
    : local_(static_cast<std::size_t>(num_ranks)) {
  TLB_EXPECTS(num_ranks > 0);
}

void ObjectStore::create(RankId rank, TaskId id,
                         std::unique_ptr<Migratable> payload) {
  TLB_EXPECTS(rank >= 0 && rank < num_ranks());
  TLB_EXPECTS(id >= 0);
  TLB_EXPECTS(payload != nullptr);
  auto const index = static_cast<std::size_t>(id);
  if (index >= directory_.size()) {
    directory_.resize(index + 1);
  }
  TLB_EXPECTS(directory_[index].owner == invalid_rank);
  directory_[index] = {place(rank, id, std::move(payload)), rank};
  ++tasks_;
}

std::vector<TaskId> ObjectStore::tasks_on(RankId rank) const {
  TLB_EXPECTS(rank >= 0 && rank < num_ranks());
  Table const& table = local_[static_cast<std::size_t>(rank)];
  std::vector<TaskId> out;
  out.reserve(table.size());
  for (Resident const& slot : table) {
    out.push_back(slot.id);
  }
  return out;
}

std::vector<std::vector<ObjectStore::Departure>>
ObjectStore::depart(std::vector<Migration> const& migrations) {
  std::vector<std::vector<Departure>> out(local_.size());
  for (Migration const& m : migrations) {
    TLB_EXPECTS(m.to >= 0 && m.to < num_ranks());
    RankId const current = owner(m.task);
    TLB_EXPECTS(current != invalid_rank);
    TLB_EXPECTS(current == m.from);
    if (m.from == m.to) {
      continue;
    }
    Table& table = local_[static_cast<std::size_t>(m.from)];
    auto const it = lower_bound_id(table, m.task);
    TLB_ASSERT(it != table.end() && it->id == m.task);
    // Already taken: the batch moves this task twice.
    TLB_EXPECTS(it->payload != nullptr);
    Migratable* const object = it->payload.get();
    out[static_cast<std::size_t>(m.from)].push_back(
        {m, object->wire_bytes(), std::move(it->payload), object});
    entry(m.task).payload = nullptr;
  }
  for (std::size_t r = 0; r < out.size(); ++r) {
    if (!out[r].empty()) {
      std::erase_if(local_[r], [](Resident const& slot) {
        return slot.payload == nullptr;
      });
    }
  }
  return out;
}

Migratable* ObjectStore::place(RankId rank, TaskId id,
                               std::unique_ptr<Migratable> payload) {
  Table& table = local_[static_cast<std::size_t>(rank)];
  Migratable* const raw = payload.get();
  table.insert(lower_bound_id(table, id), Resident{id, std::move(payload)});
  return raw;
}

std::size_t ObjectStore::audit_layout() const {
  auto const owned = std::count_if(
      directory_.begin(), directory_.end(),
      [](Entry const& e) { return e.owner != invalid_rank; });
  TLB_INVARIANT(static_cast<std::size_t>(owned) == tasks_,
                "migration conserves the global task count");
  std::size_t resident = 0;
  bool sorted = true;
  bool listed_owned = true;
  bool cache_exact = true;
  for (std::size_t r = 0; r < local_.size(); ++r) {
    Table const& table = local_[r];
    for (std::size_t i = 0; i < table.size(); ++i) {
      Resident const& slot = table[i];
      sorted = sorted && (i == 0 || table[i - 1].id < slot.id);
      bool const owned_here = owner(slot.id) == static_cast<RankId>(r);
      listed_owned = listed_owned && owned_here;
      cache_exact =
          cache_exact && owned_here &&
          directory_[static_cast<std::size_t>(slot.id)].payload ==
              slot.payload.get();
    }
    resident += table.size();
  }
  TLB_INVARIANT(sorted, "each rank's table is strictly increasing by id");
  TLB_INVARIANT(listed_owned,
                "every id a rank's table lists is owned by that rank");
  TLB_INVARIANT(cache_exact,
                "directory payload cache equals the owner table's pointer");
  return resident;
}

std::size_t ObjectStore::migrate(Runtime& rt,
                                 std::vector<Migration> const& migrations) {
  TLB_SPAN_ARG("rt", "migrate", "count", migrations.size());
  failed_.clear();

  // leaving[r][i] is origin r's i-th item in the delivery batch. The
  // payload stays in its slot until the destination installs it, so a
  // lost delivery never loses the task.
  auto leaving = depart(migrations);
  struct Install final : DeliveryHooks {
    Install(ObjectStore& s, std::vector<std::vector<Departure>>& l)
        : store{s}, leaving{l} {}
    bool apply(RankId at, RankId origin, std::uint32_t index) override {
      Departure& d = leaving[static_cast<std::size_t>(origin)][index];
      store.place(at, d.mig.task, std::move(d.payload));
      return true; // a commit is never refused
    }
    // Not accepted means never installed: the body below rolls it back.
    void give_back(RankId /*origin*/, std::uint32_t /*index*/) override {}
    ObjectStore& store;
    std::vector<std::vector<Departure>>& leaving;
  } install{*this, leaving};

  DeliveryBatch batch{rt, MessageKind::migration, install};
  for (std::size_t r = 0; r < leaving.size(); ++r) {
    for (Departure const& d : leaving[r]) {
      batch.add(static_cast<RankId>(r), d.mig.to, d.bytes);
    }
  }
  batch.post();
  (void)batch.settle();

  // Commit: only now does the directory learn the new owner. A migration
  // that was never installed rolls back: its payload returns to the
  // origin's table and the directory keeps the origin.
  std::size_t moved_bytes = 0;
  for (std::size_t r = 0; r < leaving.size(); ++r) {
    auto const origin = static_cast<RankId>(r);
    for (std::uint32_t i = 0; i < leaving[r].size(); ++i) {
      Departure& d = leaving[r][i];
      if (batch.outcome(origin, i) == DeliveryOutcome::accepted) {
        entry(d.mig.task) = {d.object, d.mig.to};
        moved_bytes += d.bytes;
        ++migration_count_;
      } else {
        TLB_ASSERT(d.payload != nullptr);
        entry(d.mig.task).payload =
            place(origin, d.mig.task, std::move(d.payload));
        failed_.push_back(d.mig);
      }
    }
  }

  TLB_AUDIT_BLOCK {
    // Task conservation: a migration batch neither creates nor destroys
    // tasks (commits moved the payload, rollbacks reinstated it), every
    // payload is resident on exactly one rank, and the directory agrees
    // with the residency each commit or rollback promised.
    TLB_INVARIANT(audit_layout() == tasks_,
                  "every task resident on exactly one rank after migrate");
    bool placement_agrees = true;
    for (std::size_t r = 0; r < leaving.size(); ++r) {
      for (std::uint32_t i = 0; i < leaving[r].size(); ++i) {
        Migration const& m = leaving[r][i].mig;
        RankId const expect =
            batch.outcome(m.from, i) == DeliveryOutcome::accepted ? m.to
                                                                  : m.from;
        placement_agrees = placement_agrees && owner(m.task) == expect &&
                           find(expect, m.task) != nullptr;
      }
    }
    TLB_INVARIANT(placement_agrees,
                  "directory and residency agree per commit/rollback");
  }
  migration_bytes_ += moved_bytes;
  return moved_bytes;
}

} // namespace tlb::rt
