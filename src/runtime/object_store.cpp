#include "runtime/object_store.hpp"

#include <algorithm>
#include <cstdint>
#include <set>

#include "obs/tracer.hpp"
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

std::vector<ObjectStore::Departure>
ObjectStore::depart(std::vector<Migration> const& migrations) {
  std::vector<Departure> out;
  out.reserve(migrations.size());
  std::vector<RankId> origins;
  origins.reserve(migrations.size());
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
    out.push_back(
        {m, object->wire_bytes(),
         std::make_shared<std::unique_ptr<Migratable>>(std::move(it->payload)),
         object});
    entry(m.task).payload = nullptr;
    origins.push_back(m.from);
  }
  std::sort(origins.begin(), origins.end());
  origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
  for (RankId const r : origins) {
    std::erase_if(local_[static_cast<std::size_t>(r)],
                  [](Resident const& slot) { return slot.payload == nullptr; });
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
  if (rt.fault_active()) {
    return migrate_resilient(rt, migrations);
  }
  std::size_t moved_bytes = 0;
  for (Departure& d : depart(migrations)) {
    // The origin rank sends the extracted payload to the target, which
    // installs it — the in-process analogue of serialize/ship/deserialize.
    auto* store = this;
    auto shared_payload = std::move(d.payload);
    TaskId const task = d.mig.task;
    RankId const to = d.mig.to;
    std::size_t const bytes = d.bytes;
    rt.post(
        d.mig.from,
        [store, shared_payload, task, to, bytes](RankContext& ctx) {
          ctx.send(
              to, bytes,
              [store, shared_payload, task](RankContext& dest) {
                store->entry(task).payload = store->place(
                    dest.rank(), task, std::move(*shared_payload));
              },
              MessageKind::migration);
        },
        0, MessageKind::migration);

    entry(task).owner = to;
    moved_bytes += bytes;
    ++migration_count_;
  }
  rt.run_until_quiescent();
  TLB_AUDIT_BLOCK {
    // Task conservation: a migration batch must neither create nor destroy
    // tasks, every payload must be resident on exactly one rank once the
    // protocol quiesces, and the directory must agree with the residency
    // each migration promised.
    TLB_INVARIANT(audit_layout() == tasks_,
                  "every task resident on exactly one rank after migrate");
    bool directory_agrees = true;
    bool payload_installed = true;
    for (Migration const& m : migrations) {
      directory_agrees = directory_agrees && owner(m.task) == m.to;
      payload_installed = payload_installed && find(m.to, m.task) != nullptr;
    }
    TLB_INVARIANT(directory_agrees,
                  "directory points at each migration's destination");
    TLB_INVARIANT(payload_installed,
                  "each migrated payload installed at its destination");
  }
  migration_bytes_ += moved_bytes;
  return moved_bytes;
}

std::size_t
ObjectStore::migrate_resilient(Runtime& rt,
                               std::vector<Migration> const& migrations) {
  // Sequence-numbered, acknowledged, idempotent commit protocol for lossy
  // networks. Timeouts are quiescence boundaries: after run_until_quiescent
  // an unapplied slot means the payload (or the driver post carrying it)
  // was provably lost, so the driver retries with exponential backoff until
  // the policy's attempt budget runs out, then rolls the migration back.
  RetryPolicy const& retry = rt.config().retry;

  // The departed payload stays owned here until the destination installs
  // it, so a dropped message never loses the task.
  struct CommitSlot : Departure {
    explicit CommitSlot(Departure d) : Departure{std::move(d)} {}
    int attempts = 0;
    // `applied` is written once by the destination's install handler;
    // `acked` by the origin's ack handler. Distinct bytes in distinct
    // slots, each read by the driver only after quiescence.
    char applied = 0;
    char acked = 0;
  };

  std::vector<CommitSlot> slots;
  slots.reserve(migrations.size());
  for (Departure& d : depart(migrations)) {
    slots.emplace_back(std::move(d));
  }

  // Receiver-side dedup: slot index doubles as the batch-unique sequence
  // number; each destination records the sequences it has installed so a
  // duplicated (or retried-then-late-delivered) commit is a no-op. Each
  // set is only touched by its own rank's handlers.
  auto seen = std::make_shared<std::vector<std::set<std::size_t>>>(
      static_cast<std::size_t>(num_ranks()));

  auto post_attempt = [this, &rt, &slots, seen](std::size_t idx,
                                                std::uint64_t delay_polls) {
    CommitSlot* slot = &slots[idx];
    ++slot->attempts;
    auto* store = this;
    rt.post_delayed(
        slot->mig.from,
        [store, slot, seen, idx](RankContext& ctx) {
          ctx.send(
              slot->mig.to, slot->bytes,
              [store, slot, seen, idx](RankContext& dest) {
                auto& installed =
                    (*seen)[static_cast<std::size_t>(dest.rank())];
                if (!installed.insert(idx).second) {
                  return; // duplicate commit: idempotent no-op
                }
                // The directory learns the new owner only at commit.
                store->place(dest.rank(), slot->mig.task,
                             std::move(*slot->payload));
                slot->applied = 1;
                dest.send(
                    slot->mig.from, 0,
                    [slot](RankContext&) { slot->acked = 1; },
                    MessageKind::migration);
              },
              MessageKind::migration);
        },
        delay_polls, 0, MessageKind::migration);
  };

  for (std::size_t i = 0; i < slots.size(); ++i) {
    post_attempt(i, 0);
  }
  rt.run_until_quiescent();

  int const max_attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
  for (;;) {
    bool retried = false;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      CommitSlot const& slot = slots[i];
      if (slot.applied != 0 || slot.attempts >= max_attempts) {
        continue;
      }
      std::uint64_t backoff = retry.backoff_base_polls
                              << (static_cast<unsigned>(slot.attempts) - 1u);
      if (backoff > retry.max_backoff_polls) {
        backoff = retry.max_backoff_polls;
      }
      rt.record_retry(MessageKind::migration);
      post_attempt(i, backoff);
      retried = true;
    }
    if (!retried) {
      break;
    }
    rt.run_until_quiescent();
  }

  std::size_t moved_bytes = 0;
  for (CommitSlot& slot : slots) {
    if (slot.applied != 0) {
      // Commit: the destination holds the payload; only now does the
      // directory learn the new owner (a failed round must leave it
      // pointing at the origin).
      entry(slot.mig.task) = {slot.object, slot.mig.to};
      moved_bytes += slot.bytes;
      ++migration_count_;
    } else {
      // Retry budget exhausted: roll back. The payload never left the
      // driver-held slot (every delivery attempt was dropped), so it is
      // reinstated at the origin and the directory keeps the origin.
      TLB_ASSERT(*slot.payload != nullptr);
      entry(slot.mig.task).payload =
          place(slot.mig.from, slot.mig.task, std::move(*slot.payload));
      failed_.push_back(slot.mig);
    }
  }

  TLB_AUDIT_BLOCK {
    // Conservation holds even under faults: commits moved the payload,
    // rollbacks reinstated it, and nothing was created or destroyed.
    TLB_INVARIANT(audit_layout() == tasks_,
                  "every task resident on exactly one rank after migrate");
    bool placement_agrees = true;
    for (CommitSlot const& slot : slots) {
      RankId const expect =
          slot.applied != 0 ? slot.mig.to : slot.mig.from;
      placement_agrees = placement_agrees &&
                         owner(slot.mig.task) == expect &&
                         find(expect, slot.mig.task) != nullptr;
    }
    TLB_INVARIANT(placement_agrees,
                  "directory and residency agree per commit/rollback");
  }
  migration_bytes_ += moved_bytes;
  return moved_bytes;
}

} // namespace tlb::rt
