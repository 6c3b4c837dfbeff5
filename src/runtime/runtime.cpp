#include "runtime/runtime.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "support/assert.hpp"
#include "support/check.hpp"

namespace tlb::rt {

namespace {

/// Shards carved per worker for the work-stealing driver (clamped so a
/// shard never goes empty). More shards = finer-grained stealing at the
/// cost of more claim traffic; 4 keeps idle time low for the skewed
/// workloads the LB rounds produce without measurable claim overhead.
constexpr std::size_t kShardsPerWorker = 4;

} // namespace

RankId RankContext::num_ranks() const { return rt_->num_ranks(); }

void RankContext::send(RankId to, std::size_t bytes, Handler handler,
                       MessageKind kind) {
  if (coalescer_ != nullptr) {
    coalescer_->stats_.record_send(to == rank_, bytes, kind);
  } else {
    rt_->stats_.record_send(to == rank_, bytes, kind);
  }
  Envelope env{rank_, to, std::move(handler), kind};
  if (obs::enabled()) {
    rt_->stamp_causal(env, rank_, current_cause(), bytes);
  }
  rt_->enqueue(std::move(env), coalescer_);
}

Rng& RankContext::rng() { return rt_->rank_rng(rank_); }

Runtime::Runtime(RuntimeConfig config)
    : config_{config},
      mailboxes_(static_cast<std::size_t>(config.num_ranks)),
      polls_(static_cast<std::size_t>(config.num_ranks)) {
  TLB_EXPECTS(config.num_ranks > 0);
  TLB_EXPECTS(config.num_threads >= 1);
  TLB_EXPECTS(config.batch > 0);
  if (config.mailbox_reserve > 0) {
    for (auto& mailbox : mailboxes_) {
      mailbox.reserve(config.mailbox_reserve);
    }
  }
  Rng const root{config.seed};
  rank_rngs_.reserve(static_cast<std::size_t>(config.num_ranks));
  for (RankId r = 0; r < config.num_ranks; ++r) {
    rank_rngs_.push_back(root.split(static_cast<std::uint64_t>(r)));
  }
  // One sequence slot per rank plus the driver's (index num_ranks).
  causal_seq_.assign(static_cast<std::size_t>(config.num_ranks) + 1, 0);
}

void Runtime::stamp_causal(Envelope& env, RankId sender,
                           obs::CausalStamp const* cause, std::size_t bytes) {
  auto const slot = sender == invalid_rank
                        ? static_cast<std::size_t>(num_ranks())
                        : static_cast<std::size_t>(sender);
  obs::StampTable::Entry entry;
  entry.bytes = bytes;
  obs::CausalStamp& stamp = entry.stamp;
  // 2^40 ids per sender before collision with the next slot — unreachable
  // (the causal log itself caps out far earlier).
  stamp.id = ((static_cast<std::uint64_t>(slot) + 1) << 40) |
             ++causal_seq_[slot];
  if (cause != nullptr && cause->id != 0) {
    stamp.parent = cause->id;
    stamp.origin = cause->origin;
    stamp.step = cause->step;
    stamp.hop = static_cast<std::uint16_t>(cause->hop + 1);
  } else {
    // Root message: a driver post (origin = the rank the work lands on)
    // or a handler send whose own delivery predates telemetry being
    // switched on.
    stamp.parent = 0;
    stamp.origin = sender == invalid_rank ? env.to : sender;
    stamp.step = obs::CausalLog::instance().step();
    stamp.hop = 0;
  }
  env.trace = stamps_.append(entry);
}

void Runtime::consume_traced(Envelope& env, RankContext& ctx) {
  obs::Tracer const& tracer = obs::Tracer::instance();
  // A copy, installed in the context: the handler's own sends append to
  // the table, which may reallocate it under a reference.
  auto const entry = stamps_.at(env.trace);
  ctx.cause_ = entry.stamp;
  ctx.traced_ = true;
  auto const t0 = tracer.now_us();
  env.handler.consume(ctx);
  auto const t1 = tracer.now_us();
  ctx.traced_ = false;
  obs::CausalEvent event;
  event.stamp = entry.stamp;
  event.from = env.from;
  event.to = env.to;
  event.kind = message_kind_name(env.kind);
  event.bytes = entry.bytes;
  event.ts_us = t0;
  event.dur_us = t1 - t0;
  obs::CausalLog::instance().record(event);
}

void Runtime::post(RankId to, Handler handler, std::size_t bytes,
                   MessageKind kind) {
  TLB_EXPECTS(to >= 0 && to < num_ranks());
  stats_.record_send(false, bytes, kind);
  Envelope env{invalid_rank, to, std::move(handler), kind};
  if (obs::enabled()) {
    stamp_causal(env, invalid_rank, nullptr, bytes);
  }
  enqueue(std::move(env), nullptr);
}

void Runtime::post_all(Handler const& handler) {
  if (fault_active()) {
    // Keep per-message fault interposition on driver-injected fanout.
    for (RankId r = 0; r < num_ranks(); ++r) {
      post(r, handler.clone());
    }
    return;
  }
  // Fault-free fast path: one bulk in-flight/audit update for the whole
  // fanout instead of P rounds of hot atomics.
  auto const p = static_cast<std::size_t>(num_ranks());
  add_in_flight(static_cast<std::int64_t>(p));
  TLB_AUDIT_BLOCK {
    audit_enqueued_.fetch_add(p, std::memory_order_relaxed);
  }
  bool const consumer = config_.num_threads <= 1;
  for (RankId r = 0; r < num_ranks(); ++r) {
    stats_.record_send(false, 0, MessageKind::other);
    auto& mailbox = mailboxes_[static_cast<std::size_t>(r)];
    Envelope env{invalid_rank, r, handler.clone(), MessageKind::other};
    if (obs::enabled()) {
      stamp_causal(env, invalid_rank, nullptr, 0);
    }
    stats_.record_mailbox_depth(consumer ? mailbox.push_consumer(std::move(env))
                                         : mailbox.push(std::move(env)));
  }
}

void Runtime::post_delayed(RankId to, Handler handler,
                           std::uint64_t delay_polls, std::size_t bytes,
                           MessageKind kind) {
  TLB_EXPECTS(to >= 0 && to < num_ranks());
  stats_.record_send(false, bytes, kind);
  Envelope env{invalid_rank, to, std::move(handler), kind,
               /*fault_exempt=*/true};
  if (obs::enabled()) {
    // Retry triggers and other delayed work start fresh causal roots:
    // they model local scheduling, not wire traffic, so the chain they
    // spawn (e.g. a handshake resend) is attributed to the retry itself.
    stamp_causal(env, invalid_rank, nullptr, bytes);
  }
  if (delay_polls == 0) {
    enqueue_direct(std::move(env), nullptr);
    return;
  }
  add_in_flight(1);
  TLB_AUDIT_BLOCK {
    audit_enqueued_.fetch_add(1, std::memory_order_relaxed);
  }
  auto const due = polls_[static_cast<std::size_t>(to)].value.load(
                       std::memory_order_relaxed) +
                   delay_polls;
  mailboxes_[static_cast<std::size_t>(to)].push_delayed(std::move(env), due);
  delayed_pending_.fetch_add(1, std::memory_order_release);
}

void Runtime::enqueue(Envelope&& env, SendCoalescer* coalescer) {
  TLB_EXPECTS(env.to >= 0 && env.to < num_ranks());
  if (fault_ != nullptr && !env.fault_exempt) {
    FaultDecision const decision = fault_->on_send(env.from, env.to, env.kind);
    // The sending loop's own block: a handler's coalescer, or the driver's.
    NetworkStats& stats = coalescer != nullptr ? coalescer->stats_ : stats_;
    switch (decision.action) {
    case FaultAction::drop:
      // Refused before it was ever in flight: quiescence is unaffected,
      // only the per-kind drop counter remembers it.
      stats.record_drop(env.kind);
      TLB_INSTANT_ARG("fault", "drop", "kind", static_cast<int>(env.kind));
      return;
    case FaultAction::duplicate: {
      stats.record_duplicate(env.kind);
      TLB_INSTANT_ARG("fault", "duplicate", "kind",
                      static_cast<int>(env.kind));
      Envelope clone{env.from, env.to, env.handler.clone(), env.kind,
                     /*fault_exempt=*/true};
      // A duplicate IS the same logical message: it shares the original's
      // stamp slot rather than consuming a fresh id, so the causal graph
      // (and the id sequence later sends observe) is unchanged.
      clone.trace = env.trace;
      enqueue_direct(std::move(clone), coalescer);
      break; // the original still delivers below
    }
    case FaultAction::delay: {
      // Delays park in the mailbox's delay queue directly: coalescing
      // would defeat the fault's purpose (reordering relative to the
      // sender's later messages).
      stats.record_delay(env.kind);
      TLB_INSTANT_ARG("fault", "delay", "kind", static_cast<int>(env.kind));
      add_in_flight(1);
      TLB_AUDIT_BLOCK {
        audit_enqueued_.fetch_add(1, std::memory_order_relaxed);
      }
      auto const to = static_cast<std::size_t>(env.to);
      auto const due = polls_[to].value.load(std::memory_order_relaxed) +
                       std::max<std::uint32_t>(1, decision.delay_polls);
      mailboxes_[to].push_delayed(std::move(env), due);
      delayed_pending_.fetch_add(1, std::memory_order_release);
      return;
    }
    case FaultAction::deliver:
      break;
    }
  }
  enqueue_direct(std::move(env), coalescer);
}

void Runtime::enqueue_direct(Envelope&& env, SendCoalescer* coalescer) {
  if (coalescer != nullptr) {
    // No atomics here at all: the message is counted in flight in bulk at
    // flush time (flush_coalesced folds pending_ before the batch that
    // produced these sends retires, so in_flight stays positive for as
    // long as the envelope sits in a buffer or an unswept stash).
    if (config_.num_threads <= 1) {
      // Sequential driver: it is the single consumer of every mailbox, so
      // the send can go straight into the destination's consumer stash —
      // eager, lock-free, and with no per-destination staging pass. The
      // delivery order is exactly eager-push order, bit-identical to the
      // historical sequential schedule.
      ++coalescer->pending_;
      coalescer->stats_.record_mailbox_depth(
          mailboxes_[static_cast<std::size_t>(env.to)].push_consumer(
              std::move(env)));
      return;
    }
    coalescer->append(std::move(env));
    return;
  }
  // Direct path (driver posts): increment strictly before the message
  // becomes visible so in_flight==0 can never be observed while work
  // remains. Under the sequential driver the posting thread is also every
  // mailbox's consumer, so the lock-free consumer push applies here too.
  add_in_flight(1);
  TLB_AUDIT_BLOCK {
    audit_enqueued_.fetch_add(1, std::memory_order_relaxed);
  }
  auto& mailbox = mailboxes_[static_cast<std::size_t>(env.to)];
  auto const depth = config_.num_threads <= 1
                         ? mailbox.push_consumer(std::move(env))
                         : mailbox.push(std::move(env));
  stats_.record_mailbox_depth(depth);
}

void Runtime::flush_coalesced(SendCoalescer& coalescer) {
  // Count every buffered message in flight before the first push: once an
  // envelope is visible another worker may run and retire it, and the
  // counter must never have missed it.
  if (coalescer.pending_ > 0) {
    add_in_flight(static_cast<std::int64_t>(coalescer.pending_));
    TLB_AUDIT_BLOCK {
      audit_enqueued_.fetch_add(coalescer.pending_,
                                std::memory_order_relaxed);
    }
    coalescer.pending_ = 0;
  }
  // Bucketed envelopes exist only under the threaded driver (the
  // sequential driver pushes eagerly into consumer stashes and only needs
  // the bulk in-flight fold above).
  for (std::size_t i = 0; i < coalescer.used_; ++i) {
    auto& bucket = coalescer.buckets_[i];
    auto const n = bucket.msgs.size();
    auto const depth =
        mailboxes_[static_cast<std::size_t>(bucket.dest)].push_batch(
            bucket.msgs);
    coalescer.stats_.record_flush(n, depth);
    coalescer.slot_of_dest_[static_cast<std::size_t>(bucket.dest)] = 0;
  }
  coalescer.used_ = 0;
}

void Runtime::record_retry(MessageKind kind) {
  stats_.record_retry(kind);
  TLB_INSTANT_ARG("fault", "retry", "kind", static_cast<int>(kind));
}

Rng& Runtime::rank_rng(RankId rank) {
  TLB_EXPECTS(rank >= 0 && rank < num_ranks());
  return rank_rngs_[static_cast<std::size_t>(rank)];
}

void Runtime::purge_rank(RankId rank, NetworkStats& stats) {
  std::vector<Envelope> purged;
  std::size_t delayed_removed = 0;
  auto const n = mailboxes_[static_cast<std::size_t>(rank)].drain_all(
      purged, &delayed_removed);
  if (n == 0) {
    return;
  }
  for (Envelope const& env : purged) {
    stats.record_drop(env.kind);
  }
  if (delayed_removed > 0) {
    delayed_pending_.fetch_sub(static_cast<std::int64_t>(delayed_removed),
                               std::memory_order_relaxed);
  }
  TLB_AUDIT_BLOCK {
    audit_purged_.fetch_add(n, std::memory_order_relaxed);
  }
  add_in_flight(-static_cast<std::int64_t>(n));
}

void Runtime::flush_all() {
  for (RankId r = 0; r < num_ranks(); ++r) {
    purge_rank(r, stats_);
  }
}

std::size_t Runtime::drain_rank(RankId rank, WorkerState& worker,
                                std::size_t batch) {
  auto const slot = static_cast<std::size_t>(rank);
  // Single-writer counter (shard ownership serializes visits): a relaxed
  // load/store pair, not an RMW — senders computing delay due-times only
  // ever read it approximately.
  auto const poll =
      polls_[slot].value.load(std::memory_order_relaxed) + 1;
  polls_[slot].value.store(poll, std::memory_order_relaxed);
  if (fault_ != nullptr) {
    switch (fault_->on_drain(rank, poll)) {
    case DrainGate::open:
      break;
    case DrainGate::stalled:
      return 0; // transient: messages wait, quiescence keeps spinning
    case DrainGate::crashed:
      purge_rank(rank, worker.coalescer.stats_);
      return 0;
    }
  }
  // Handlers consume straight out of the mailbox stash on both drivers:
  // the sequential driver, or the worker holding this rank's shard, is the
  // mailbox's only consumer, so no envelope is staged through a
  // per-worker buffer. The whole visit (releasing due delayed messages and claiming
  // the backlog) takes at most one mailbox lock. The drain span is opened
  // lazily so empty polls stay span-free.
  bool const need_release =
      delayed_pending_.load(std::memory_order_acquire) > 0;
  std::size_t released = 0;
  RankContext ctx{*this, rank, &worker.coalescer};
  std::optional<obs::SpanGuard> span;
  std::size_t const n = mailboxes_[slot].consume_batch(
      batch, poll, need_release, &released, [&](Envelope& env) {
        if (!span) {
          span.emplace("rt", "drain");
        }
        if (obs::enabled()) {
          consume_traced(env, ctx);
          return;
        }
        env.handler.consume(ctx); // invoke + destroy in one dispatch
      });
  if (span) {
    span->set_arg("n", static_cast<double>(n));
  }
  if (released > 0) {
    delayed_pending_.fetch_sub(static_cast<std::int64_t>(released),
                               std::memory_order_relaxed);
  }
  if (n == 0) {
    return 0;
  }
  // Flush the batch's coalesced sends before retiring the batch from the
  // in-flight counter: buffered messages were counted at append time, so
  // flushing first keeps in_flight==0 unobservable while any envelope
  // still sits in a worker-private buffer.
  if (!worker.coalescer.empty()) {
    TLB_SPAN("rt", "flush");
    flush_coalesced(worker.coalescer);
  }
  // Decrement once, after every handler in the batch (and the sends they
  // performed, which have already incremented the counter) completes.
  // Deferring keeps the invariant that in_flight == 0 is unobservable
  // while work remains — the counter only over-estimates — and replaces n
  // hot-atomic RMWs per drain with one.
  TLB_AUDIT_BLOCK {
    audit_processed_.fetch_add(n, std::memory_order_relaxed);
  }
  add_in_flight(-static_cast<std::int64_t>(n));
  return n;
}

bool Runtime::run_until_quiescent() {
  return run_until_quiescent(config_.quiesce_poll_budget);
}

bool Runtime::run_until_quiescent(std::size_t max_polls) {
  TLB_SPAN("rt", "quiesce");
  abort_.store(false, std::memory_order_relaxed);
  if (config_.num_threads <= 1) {
    run_sequential(max_polls);
  } else {
    run_threaded(max_polls);
  }
  // No handler runs any more: every driver loop's counters join the
  // runtime's own.
  for (WorkerState& worker : worker_states_) {
    stats_.fold(worker.coalescer.stats_);
    worker.coalescer.stats_ = NetworkStats{};
  }
  bool const aborted = abort_.load(std::memory_order_relaxed);
  if (aborted) {
    if (obs::enabled()) {
      // Liveness valve tripped: capture the black box before the flush
      // below destroys the evidence of what was still in flight. Every
      // worker's counters are folded by now, so the dump carries them.
      publish_metrics(obs::registry());
      (void)obs::dump_flight_record("quiesce_budget_exhausted");
    }
    // Budget expired with work still in flight. No handler is executing
    // any more, so everything left lives in the mailboxes: flush it
    // (counted as dropped) so the runtime is reusable and in-flight is an
    // honest zero for the next round.
    flush_all();
    abort_.store(false, std::memory_order_relaxed);
  }
  TLB_ENSURES(in_flight_.load(std::memory_order_acquire) == 0);
  // Nothing is in flight, delayed messages included, so no envelope
  // names a stamp slot any more.
  stamps_.clear();
  TLB_AUDIT_BLOCK {
    // Termination-counter consistency: the in-flight counter says zero;
    // the independent totals and the mailboxes themselves must agree that
    // every message enqueued over the runtime's lifetime ran exactly once
    // — or was explicitly purged by a crash or an abort flush.
    TLB_INVARIANT(audit_processed_.load(std::memory_order_acquire) +
                          audit_purged_.load(std::memory_order_acquire) ==
                      audit_enqueued_.load(std::memory_order_acquire),
                  "quiescence: every enqueued message processed or purged");
    bool drained = true;
    for (Mailbox const& mailbox : mailboxes_) {
      drained = drained && mailbox.empty();
    }
    TLB_INVARIANT(drained, "quiescence: every mailbox empty");
  }
  return !aborted;
}

void Runtime::run_sequential(std::size_t max_polls) {
  // Deterministic round-robin: visit ranks in order, draining a bounded
  // batch from each, until the in-flight counter reaches zero. Coalesced
  // sends flush at the end of each visit — before any other rank runs —
  // so the schedule is bit-identical to the historical eager-push driver.
  auto const batch = static_cast<std::size_t>(config_.batch);
  WorkerState& worker = worker_state(0);
  std::size_t sweeps = 0;
  while (in_flight_.load(std::memory_order_acquire) > 0) {
    for (RankId r = 0; r < num_ranks(); ++r) {
      drain_rank(r, worker, batch);
    }
    if (max_polls != 0 && ++sweeps >= max_polls &&
        in_flight_.load(std::memory_order_acquire) > 0) {
      abort_.store(true, std::memory_order_relaxed);
      break;
    }
  }
}

void Runtime::run_threaded(std::size_t max_polls) {
  int const workers =
      std::min<int>(config_.num_threads, static_cast<int>(num_ranks()));
  auto const ranks = static_cast<std::size_t>(num_ranks());
  // Work stealing over rank shards: the rank space is cut into a few
  // shards per worker (sizes differing by at most one, never empty — this
  // also fixes the old ceil-division block split, which could hand the
  // last worker an empty range when P wasn't divisible). Any worker may
  // claim any unclaimed shard; the acquire exchange / release store pair
  // on the claim flag orders consecutive processors of a rank, so a
  // rank's handlers still execute single-threaded and per-rank protocol
  // state needs no locking.
  auto const nshards =
      std::min(ranks, static_cast<std::size_t>(workers) * kShardsPerWorker);
  std::vector<Shard> shards(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    shards[s].lo = static_cast<RankId>(s * ranks / nshards);
    shards[s].hi = static_cast<RankId>((s + 1) * ranks / nshards);
  }

  auto const batch = static_cast<std::size_t>(config_.batch);
  // Touch every worker's state on the driver thread first so the lazily-
  // grown vector never reallocates under a worker.
  worker_state(static_cast<std::size_t>(workers) - 1);

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([this, w, workers, nshards, &shards, batch,
                       max_polls] {
      WorkerState& worker = worker_state(static_cast<std::size_t>(w));
      // Stagger the sweep start so workers begin on disjoint shards and
      // only collide (and steal) once load skews.
      std::size_t const start =
          static_cast<std::size_t>(w) * nshards / static_cast<std::size_t>(workers);
      int idle_spins = 0;
      std::size_t sweeps = 0;
      while (in_flight_.load(std::memory_order_acquire) > 0) {
        if (abort_.load(std::memory_order_relaxed)) {
          return; // another worker exhausted the budget
        }
        std::size_t processed = 0;
        for (std::size_t i = 0; i < nshards; ++i) {
          Shard& shard = shards[(start + i) % nshards];
          if (shard.busy.exchange(true, std::memory_order_acquire)) {
            continue; // another worker holds it; move on, don't wait
          }
          for (RankId r = shard.lo; r < shard.hi; ++r) {
            processed += drain_rank(r, worker, batch);
          }
          shard.busy.store(false, std::memory_order_release);
        }
        if (max_polls != 0 && ++sweeps >= max_polls) {
          if (in_flight_.load(std::memory_order_acquire) > 0) {
            abort_.store(true, std::memory_order_relaxed);
          }
          return;
        }
        if (processed == 0) {
          // Backoff: other workers' messages may still be in flight
          // toward the shards we can see.
          if (++idle_spins > 64) {
            std::this_thread::yield();
          }
        } else {
          idle_spins = 0;
        }
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

Runtime::WorkerState& Runtime::worker_state(std::size_t index) {
  while (worker_states_.size() <= index) {
    worker_states_.emplace_back(static_cast<std::size_t>(num_ranks()));
  }
  return worker_states_[index];
}

void Runtime::publish_metrics(obs::Registry& registry) const {
  NetworkStats const& s = stats_;
  registry.set_counter("net.messages", s.messages);
  registry.set_counter("net.bytes", s.bytes);
  registry.set_counter("net.local_messages", s.local_messages);
  for (std::size_t k = 0; k < num_message_kinds; ++k) {
    obs::Labels const labels{
        {"category", message_kind_name(static_cast<MessageKind>(k))}};
    registry.set_counter("net.messages_by_category", s.kind_messages[k],
                         labels);
    registry.set_counter("net.bytes_by_category", s.kind_bytes[k], labels);
    registry.set_counter("net.dropped_by_category", s.kind_dropped[k], labels);
    registry.set_counter("net.delayed_by_category", s.kind_delayed[k], labels);
    registry.set_counter("net.duplicated_by_category", s.kind_duplicated[k],
                         labels);
    registry.set_counter("net.retried_by_category", s.kind_retried[k], labels);
  }
  registry.set_gauge("net.max_mailbox_depth",
                     static_cast<std::int64_t>(s.max_mailbox_depth));
  registry.set_counter("net.coalesced_flushes", s.coalesced_flushes);
  registry.set_counter("net.coalesced_messages", s.coalesced_messages);
}

} // namespace tlb::rt
