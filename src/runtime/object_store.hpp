#pragma once

/// \file object_store.hpp
/// The migratable-object (task) model: every task owns a payload that
/// moves with it when the load balancer reassigns it to another rank.
/// Payload movement is performed with active messages carrying the object,
/// so migration traffic is visible in the network statistics with the
/// payload's modeled serialized size.

#include <memory>
#include <vector>

#include "runtime/runtime.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace tlb::rt {

/// Base class for anything a task carries across ranks. Implementations
/// report their modeled serialized size for migration-cost accounting.
class Migratable {
public:
  virtual ~Migratable() = default;
  Migratable() = default;
  Migratable(Migratable const&) = delete;
  Migratable& operator=(Migratable const&) = delete;

  /// Modeled wire size of this object if it were serialized.
  [[nodiscard]] virtual std::size_t wire_bytes() const = 0;
};

/// Per-job store of migratable tasks. Each rank owns a local table; a
/// directory records the current owner of every task (standing in for the
/// distributed location service a real AMT runtime maintains).
///
/// Layout: the directory is a dense array indexed by task id, so owner()
/// and find() are array reads. Task ids must be non-negative and should be
/// dense (every in-tree caller numbers its tasks 0..N-1): directory memory
/// is O(largest id). Each directory entry also caches the payload pointer
/// held by the owner's table (null while the task is in flight). Each
/// rank's table is a flat vector sorted by id, so tasks_on() walks it in
/// id order.
///
/// Thread-safety: creation and the migration protocol are driver-level
/// operations executed between phases; handlers running concurrently
/// during a phase may only touch tasks local to their own rank (a
/// migration's install handler writes only its destination rank's table;
/// the driver updates the directory once the batch settles). No lock
/// guards the store, so there is no capability to annotate
/// (support/thread_annotations.hpp) — the phase-discipline argument is
/// exercised by the TSan stress gate and the migration conservation
/// audits instead.
class ObjectStore {
public:
  explicit ObjectStore(RankId num_ranks);

  /// Register a new task on `rank`. Task ids must be unique and
  /// non-negative.
  void create(RankId rank, TaskId id, std::unique_ptr<Migratable> payload);

  /// Current owner of a task; invalid_rank if unknown.
  [[nodiscard]] RankId owner(TaskId id) const {
    return known(id) ? directory_[static_cast<std::size_t>(id)].owner
                     : invalid_rank;
  }

  /// Payload access; null when the task is not on `rank`.
  [[nodiscard]] Migratable* find(RankId rank, TaskId id) {
    return resident_payload(rank, id);
  }
  [[nodiscard]] Migratable const* find(RankId rank, TaskId id) const {
    return resident_payload(rank, id);
  }

  /// Task ids currently on `rank` (sorted).
  [[nodiscard]] std::vector<TaskId> tasks_on(RankId rank) const;

  [[nodiscard]] std::size_t total_tasks() const { return tasks_; }
  [[nodiscard]] RankId num_ranks() const {
    return static_cast<RankId>(local_.size());
  }

  /// Execute a batch of migrations via active messages on the runtime:
  /// each origin rank sends its payload to the target, which installs it,
  /// and the directory learns the new owners once the batch settles.
  /// Migrations whose `from` does not match the directory are rejected
  /// with a contract violation. Returns the total payload bytes moved.
  ///
  /// The payloads travel in one rt::DeliveryBatch (runtime/delivery.hpp).
  /// Fault-free that is one driver post and one payload message per
  /// migration. Under an active fault plane each payload send carries a
  /// sequence number and is acknowledged, deduplicated at the receiver (a
  /// duplicated commit is a no-op), and resent while unacked with bounded
  /// exponential backoff (kMaxDeliveryAttempts and the backoff constants
  /// in runtime/delivery.hpp). A migration that never reached its
  /// destination is rolled back: the payload is reinstated at
  /// the origin, the directory keeps the origin as owner, and the
  /// migration is reported through failed_migrations().
  std::size_t migrate(Runtime& rt, std::vector<Migration> const& migrations);

  /// Migrations from the most recent migrate() call whose commit could not
  /// be completed before the retry budget ran out (only possible under an
  /// active fault plane). Their tasks remain resident at the origin rank.
  [[nodiscard]] std::vector<Migration> const& failed_migrations() const {
    return failed_;
  }

  /// Cumulative payload bytes moved by all migrate() calls.
  [[nodiscard]] std::size_t migration_bytes() const {
    return migration_bytes_;
  }
  [[nodiscard]] std::size_t migration_count() const {
    return migration_count_;
  }

private:
  /// Directory slot of one task id; owner is invalid_rank for an id never
  /// created.
  struct Entry {
    Migratable* payload = nullptr;
    RankId owner = invalid_rank;
  };
  /// One task resident on a rank.
  struct Resident {
    TaskId id = invalid_task;
    std::unique_ptr<Migratable> payload;
  };
  using Table = std::vector<Resident>;

  [[nodiscard]] bool known(TaskId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < directory_.size();
  }
  [[nodiscard]] Migratable* resident_payload(RankId rank, TaskId id) const {
    TLB_EXPECTS(rank >= 0 && rank < num_ranks());
    if (!known(id)) {
      return nullptr;
    }
    Entry const& entry = directory_[static_cast<std::size_t>(id)];
    return entry.owner == rank ? entry.payload : nullptr;
  }
  [[nodiscard]] Entry& entry(TaskId id) {
    return directory_[static_cast<std::size_t>(id)];
  }

  /// One migration's payload, moved out of its origin table.
  struct Departure {
    Migration mig;
    std::size_t bytes = 0;
    /// Held here until the destination installs it (or it rolls back).
    std::unique_ptr<Migratable> payload;
    /// The object itself, for the directory once it is installed.
    Migratable* object = nullptr;
  };
  /// Checks each migration against the directory and moves every payload
  /// that changes rank out of its origin table, grouped by origin in
  /// batch order (the directory is not updated). Each origin table is
  /// then compacted in one erase-remove pass.
  [[nodiscard]] std::vector<std::vector<Departure>>
  depart(std::vector<Migration> const& migrations);
  /// Inserts a payload into `rank`'s table in id order; returns it.
  Migratable* place(RankId rank, TaskId id,
                    std::unique_ptr<Migratable> payload);

  /// Audit-build checks of the layout after a migrate batch; returns the
  /// number of resident tasks.
  std::size_t audit_layout() const;

  std::vector<Table> local_;
  std::vector<Entry> directory_;
  std::size_t tasks_ = 0;
  std::vector<Migration> failed_;
  std::size_t migration_bytes_ = 0;
  std::size_t migration_count_ = 0;
};

} // namespace tlb::rt
