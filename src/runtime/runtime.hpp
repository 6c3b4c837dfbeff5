#pragma once

/// \file runtime.hpp
/// The in-process AMT runtime: P simulated ranks exchanging active
/// messages, driven either by a deterministic sequential scheduler or by a
/// pool of worker threads. The threaded driver partitions the rank space
/// into shards (a few per worker, sizes differing by at most one) that
/// workers claim and steal: a shard is processed by exactly one worker at
/// a time, so any given rank's handlers still execute single-threaded,
/// but a hot shard no longer serializes a statically-assigned owner while
/// the rest of the pool spins.
///
/// The send path is coalescing: while a worker executes a drain batch, its
/// handlers' sends accumulate in per-destination buffers and flush into
/// each destination mailbox as one locked batch push at the end of the
/// visit. Per-sender FIFO order is preserved (a flush appends a sender's
/// messages in send order, and the sequential driver flushes before any
/// other rank runs, keeping its schedule bit-identical to eager pushes).
/// In-flight accounting happens at buffering time, so quiescence can never
/// observe zero while coalesced messages wait, and the fault plane still
/// interposes on each envelope individually at send time.
///
/// Quiescence ("termination detection" for a protocol stage) uses an
/// in-flight message counter: incremented at send, decremented only after
/// the handler — including all sends it performed, buffered or not — has
/// been flushed and returned. The counter reaching zero therefore implies
/// no queued messages and no executing handler anywhere: exactly the
/// guarantee a distributed termination detector provides, obtained here
/// through shared memory.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/causal.hpp"
#include "runtime/config.hpp"
#include "runtime/fault_hook.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/message.hpp"
#include "runtime/network_stats.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tlb::obs {
class Registry;
}

namespace tlb::rt {

class Runtime;

/// Per-worker sender-side coalescing buffers: one envelope batch per
/// destination rank, flushed by Runtime::flush_coalesced as a single
/// locked push per dirty destination. Owned by each driver loop (one per
/// worker thread); handlers reach it through their RankContext.
///
/// Buffering is what lets the per-message bookkeeping go batch-granular:
/// appended messages are counted into the in-flight counter in one bulk
/// add at flush time (safe because the batch whose handlers produced them
/// has not been retired yet), and traffic statistics accumulate in the
/// driver loop's own NetworkStats block, which the runtime folds into its
/// totals once per run. The hot send path is thereby free of atomics
/// entirely.
///
/// Deliberately outside the thread-safety annotation discipline
/// (support/thread_annotations.hpp): the coalescer is thread-confined by
/// construction — no lock guards it, so there is no capability to name.
/// Its safety argument (one instance per driver loop) is exercised by the
/// TSan stress gate; the cross-thread handoff happens inside the
/// annotated Mailbox::push_batch.
class SendCoalescer {
public:
  explicit SendCoalescer(std::size_t num_ranks)
      : slot_of_dest_(num_ranks, 0) {}

  /// True when nothing is buffered AND nothing awaits its bulk in-flight
  /// fold (the sequential driver's eager sends bump pending_ without ever
  /// staging a bucket).
  [[nodiscard]] bool empty() const { return used_ == 0 && pending_ == 0; }

private:
  friend class Runtime;
  friend class RankContext;

  /// A per-destination batch. Buckets live in a dense, reused list — only
  /// the first `used_` are active in the current flush interval — so their
  /// capacities persist forever and the append path touches a working set
  /// proportional to the destinations actually hit, not to P.
  struct Bucket {
    RankId dest = invalid_rank;
    std::vector<Envelope> msgs;
  };

  void append(Envelope&& env) {
    auto& slot = slot_of_dest_[static_cast<std::size_t>(env.to)];
    if (slot == 0) {
      if (used_ == buckets_.size()) {
        buckets_.emplace_back();
      }
      buckets_[used_].dest = env.to;
      slot = static_cast<std::uint32_t>(++used_);
    }
    buckets_[slot - 1].msgs.push_back(std::move(env));
    ++pending_;
  }

  std::vector<Bucket> buckets_;
  /// dest -> index into buckets_ plus one; 0 = no bucket this interval.
  /// Four bytes per rank keeps this randomly-indexed table small enough
  /// to stay cached under scatter traffic (a vector-per-dest layout puts
  /// 24 randomly-touched header bytes per rank in the way instead).
  std::vector<std::uint32_t> slot_of_dest_;
  std::size_t used_ = 0;
  /// Messages appended (and not yet counted in flight) since the last
  /// flush.
  std::size_t pending_ = 0;
  /// This driver loop's traffic counters: its handlers' sends, the fault
  /// plane's decisions on them, its coalesced flushes and its crash
  /// purges (folded by the runtime at run end).
  NetworkStats stats_;
};

/// Execution context passed to every handler: identifies the rank the
/// handler runs on and provides its communication and RNG facilities.
class RankContext {
public:
  RankContext(Runtime& runtime, RankId rank,
              SendCoalescer* coalescer = nullptr)
      : rt_{&runtime}, rank_{rank}, coalescer_{coalescer} {}

  [[nodiscard]] RankId rank() const { return rank_; }
  [[nodiscard]] RankId num_ranks() const;

  /// Send an active message; `bytes` models the serialized payload size.
  /// `kind` categorizes the traffic for per-category accounting. When the
  /// context carries a coalescer (every driver-run handler does), the
  /// envelope is buffered and flushed with the rest of the visit's sends.
  void send(RankId to, std::size_t bytes, Handler handler,
            MessageKind kind = MessageKind::other);

  /// This rank's deterministic RNG stream.
  [[nodiscard]] Rng& rng();

  [[nodiscard]] Runtime& runtime() { return *rt_; }

  /// Causal stamp of the envelope currently being delivered on this
  /// context (null outside a delivery, or when telemetry was off at
  /// delivery time): the parent for every send the handler performs. It
  /// is the context's own copy of the stamp-table entry, so it stays
  /// valid while the handler's sends append to the table.
  [[nodiscard]] obs::CausalStamp const* current_cause() const {
    return traced_ ? &cause_ : nullptr;
  }

private:
  friend class Runtime;

  Runtime* rt_;
  RankId rank_;
  SendCoalescer* coalescer_;
  obs::CausalStamp cause_;
  bool traced_ = false;
};

class Runtime {
public:
  explicit Runtime(RuntimeConfig config);
  Runtime(Runtime const&) = delete;
  Runtime& operator=(Runtime const&) = delete;
  ~Runtime() = default;

  [[nodiscard]] RankId num_ranks() const { return config_.num_ranks; }
  [[nodiscard]] RuntimeConfig const& config() const { return config_; }

  /// Inject work onto a rank from the driver (outside any handler).
  void post(RankId to, Handler handler, std::size_t bytes = 0,
            MessageKind kind = MessageKind::other);

  /// Inject the same work onto every rank (the handler is cloned per
  /// rank, so it must wrap a copyable callable).
  void post_all(Handler const& handler);

  /// Inject work that stays parked until `to` has been drain-visited
  /// `delay_polls` more times — the deterministic substitute for a wall
  /// clock that the retry protocols use for exponential backoff. Delayed
  /// work counts as in flight, so run_until_quiescent waits for it.
  /// Exempt from fault injection (it models local scheduling, not wire
  /// traffic).
  void post_delayed(RankId to, Handler handler, std::uint64_t delay_polls,
                    std::size_t bytes = 0,
                    MessageKind kind = MessageKind::other);

  /// Drive all ranks until global quiescence: every posted and sent
  /// message has been processed and no handler is executing.
  ///
  /// `max_polls` (0 = unlimited; default config().quiesce_poll_budget)
  /// bounds the number of full sweeps over the rank set. If the
  /// budget expires with work still in flight, everything still queued is
  /// flushed (counted as dropped per kind) and the call returns false —
  /// the liveness valve the LB round-abort path is built on. Returns true
  /// on a genuine quiescence.
  bool run_until_quiescent();
  bool run_until_quiescent(std::size_t max_polls);

  /// The traffic counters as of the last quiescent point.
  [[nodiscard]] NetworkStats stats() const { return stats_; }
  void reset_stats() { stats_ = NetworkStats{}; }

  /// Publish the traffic counters as of the last quiescent point into a
  /// telemetry registry as `net.*` metrics (per-category traffic and
  /// fault-plane counters, coalescing flush counters, and the
  /// max-mailbox-depth gauge), replacing any earlier publication.
  void publish_metrics(obs::Registry& registry) const;

  /// Deterministic per-rank RNG stream (derived from config seed).
  [[nodiscard]] Rng& rank_rng(RankId rank);

  /// Install (or remove, with nullptr) a fault-plane decision hook. The
  /// hook is consulted on every send and drain visit; the runtime does not
  /// own it, so the caller must keep it alive until removed.
  void set_fault_hook(FaultHook* hook) { fault_ = hook; }

  /// True when a hook is installed — the condition under which
  /// rt::DeliveryBatch (runtime/delivery.hpp) runs its sequence-numbered,
  /// acked, retried protocol. With no fault plane it keeps the historical
  /// fault-free message patterns bit-identically.
  [[nodiscard]] bool fault_active() const {
    return fault_ != nullptr;
  }

  /// Record a protocol-level resend (retry) for per-kind accounting.
  void record_retry(MessageKind kind);

  /// Monotone drain-visit counter of `rank` (the fault plane's and delay
  /// queues' deterministic time base).
  [[nodiscard]] std::uint64_t rank_polls(RankId rank) const {
    return polls_[static_cast<std::size_t>(rank)].value.load(
        std::memory_order_relaxed);
  }

  /// Audit observability (zero unless the invariant-audit build is active
  /// and enabled): lifetime totals of messages enqueued and handlers run,
  /// maintained independently of the in-flight counter so the auditor can
  /// cross-check the quiescence ground truth against a second bookkeeping.
  [[nodiscard]] std::uint64_t audit_enqueued() const {
    return audit_enqueued_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t audit_processed() const {
    return audit_processed_.load(std::memory_order_acquire);
  }

  /// Messages enqueued but never processed: fault-plane drops never make
  /// it here (they are refused at enqueue), so this counts crash purges
  /// and budget-expiry flushes. The quiescence audit accepts
  /// processed + purged == enqueued.
  [[nodiscard]] std::uint64_t audit_purged() const {
    return audit_purged_.load(std::memory_order_acquire);
  }

private:
  friend class RankContext;

  /// Per-rank drain-visit counter, padded to a cache line: each is
  /// write-hot on its rank's current worker, and unpadded neighbours
  /// false-share under the threaded driver.
  struct alignas(64) PollCounter {
    std::atomic<std::uint64_t> value{0};
  };

  /// Per-driver-loop state: the sender-side coalescing buckets and the
  /// loop's traffic counters. One per worker thread (and one for the
  /// sequential driver), kept across runs. Cache-line aligned, so one
  /// worker's counters never share a line with the next worker's
  /// coalescer heads (that false sharing showed in the 8-worker
  /// BM_MessageThroughput).
  struct alignas(64) WorkerState {
    explicit WorkerState(std::size_t num_ranks) : coalescer{num_ranks} {}
    SendCoalescer coalescer;
  };

  /// A contiguous slice of the rank space plus its claim flag. Workers
  /// claim shards with an acquire exchange and release them with a
  /// release store, so consecutive processors of the same rank are
  /// ordered (per-rank protocol state needs no further locking).
  struct alignas(64) Shard {
    RankId lo = 0;
    RankId hi = 0;
    std::atomic<bool> busy{false};
  };

  /// Adjust the in-flight counter. Under the sequential driver exactly one
  /// thread ever touches it, so the update is a relaxed load/store pair
  /// instead of a lock-prefixed RMW — the counter sits on the hottest
  /// bookkeeping path in the system (every send and every drain visit).
  void add_in_flight(std::int64_t delta) {
    if (config_.num_threads <= 1) {
      in_flight_.store(in_flight_.load(std::memory_order_relaxed) + delta,
                       std::memory_order_relaxed);
    } else {
      in_flight_.fetch_add(delta, std::memory_order_acq_rel);
    }
  }

  /// Assign `env` its causal identity: a fresh deterministic id from the
  /// sender's sequence slot, chained to `cause` (the stamp of the message
  /// whose handler is sending) or rooted at the current LB step when
  /// there is none. The stamp and `bytes` go to the side table and the
  /// envelope keeps their slot. Only called when obs::enabled().
  void stamp_causal(Envelope& env, RankId sender,
                    obs::CausalStamp const* cause, std::size_t bytes);
  /// Deliver one envelope with causal context installed and the delivery
  /// recorded into the CausalLog (timestamps from the tracer clock).
  void consume_traced(Envelope& env, RankContext& ctx);

  /// Route one send through the fault hook (when installed) into
  /// enqueue_direct. Both take the envelope by reference, so it is only
  /// ever move-constructed once, into its final slot.
  void enqueue(Envelope&& env, SendCoalescer* coalescer);
  /// The fault-oblivious tail of enqueue: counts the message in flight,
  /// then buffers it (coalescing path) or pushes it straight into the
  /// destination mailbox.
  void enqueue_direct(Envelope&& env, SendCoalescer* coalescer);
  /// Push every buffered envelope into its destination mailbox, one
  /// locked batch per dirty destination.
  void flush_coalesced(SendCoalescer& coalescer);
  /// Drop a crashed rank's entire mailbox (queued + delayed), accounting
  /// every message as dropped in `stats` (the calling loop's block) so
  /// in-flight still reaches zero.
  void purge_rank(RankId rank, NetworkStats& stats);
  /// Budget-expiry flush: purge every mailbox. Only called when no
  /// handler is executing (sequential driver, or after workers joined).
  void flush_all();
  void run_sequential(std::size_t max_polls);
  void run_threaded(std::size_t max_polls);
  /// Per-worker state, created on first use and persisted across runs so
  /// bucket capacities amortize to zero steady-state allocations (index 0
  /// doubles as the sequential driver's state).
  WorkerState& worker_state(std::size_t index);
  /// One drain visit of `rank`, the same on both drivers: release due
  /// delayed messages and claim the backlog under at most one mailbox
  /// lock, run up to `batch` handlers in place, flush their coalesced
  /// sends, then retire the batch from the in-flight counter. Returns the
  /// number of handlers run.
  std::size_t drain_rank(RankId rank, WorkerState& worker, std::size_t batch);

  RuntimeConfig config_;
  std::vector<Mailbox> mailboxes_;
  /// Lazily-created per-worker state (see worker_state()). Only touched
  /// by the driver between runs and by each worker's own thread during
  /// one.
  std::vector<WorkerState> worker_states_;
  std::vector<Rng> rank_rngs_;
  /// The driver thread's counters (posts, retries, abort flushes), and the
  /// totals once every worker's block is folded in at the end of a run.
  NetworkStats stats_;
  FaultHook* fault_ = nullptr;
  /// Per-rank drain-visit counters. Incremented only by the rank's
  /// current worker; read (relaxed) by senders computing delay due-times.
  std::vector<PollCounter> polls_;
  /// Messages currently parked in delay queues; lets drain_rank skip the
  /// release scan entirely on the (overwhelmingly common) delay-free path.
  std::atomic<std::int64_t> delayed_pending_{0};
  /// Budget-expiry signal for the threaded driver's workers.
  std::atomic<bool> abort_{false};
  std::atomic<std::int64_t> in_flight_{0};
  std::atomic<std::uint64_t> audit_enqueued_{0};
  std::atomic<std::uint64_t> audit_processed_{0};
  std::atomic<std::uint64_t> audit_purged_{0};
  /// Per-sender causal sequence counters: slot r is advanced only by rank
  /// r's (serialized) handlers, slot P only by the driver thread, so
  /// plain non-atomic counters are race-free and the id assignment is
  /// deterministic under the sequential driver.
  std::vector<std::uint64_t> causal_seq_;
  /// Causal stamps of the stamped envelopes sent since the last
  /// quiescence, named by Envelope::trace. Empty unless telemetry is on;
  /// cleared when run_until_quiescent returns.
  obs::StampTable stamps_;
};

} // namespace tlb::rt
