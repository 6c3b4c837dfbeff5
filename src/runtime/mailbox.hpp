#pragma once

/// \file mailbox.hpp
/// Per-rank FIFO message queue. Multiple producers (any rank's scheduler
/// may send here), single consumer (the worker that owns the rank — block
/// or shard ownership guarantees exactly one draining thread at a time).
///
/// The queue is two-stage to keep the producer/consumer critical sections
/// O(1): producers push (single messages or whole coalesced batches) into
/// `queue_` under the lock; the consumer claims the producer backlog into
/// its private, lock-free `stash_` (an O(1) swap whenever the stash has
/// run dry) and runs the handlers on the stashed envelopes in place, a
/// cursor walk outside the lock. FIFO order is preserved because the stash
/// always holds strictly older messages than the producer queue. Both
/// drivers drain through the one entry point, consume_batch().
///
/// Both stages are vectors, deliberately: the two buffers ping-pong
/// through the swap, so whatever capacity the backlog ever needed stays
/// allocated and the steady-state message path performs no heap traffic at
/// all. (A deque here is pathological — libstdc++'s 512-byte blocks hold
/// eight 64-byte envelopes, costing a block malloc/free every eight
/// messages.)
///
/// Besides the FIFO queue the mailbox carries a small *delay queue*:
/// messages parked with a due poll count (the rank's drain-visit counter)
/// that are moved into the FIFO once due. It backs both the fault plane's
/// delay faults and Runtime::post_delayed (the retry protocols' backoff).
/// Delayed messages count as in flight, so quiescence waits for them.
///
/// The class is cache-line aligned so adjacent mailboxes in the runtime's
/// array never share a line (the per-rank mutex and queue heads are the
/// hottest cross-thread words in the system).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "runtime/message.hpp"
#include "support/spinlock.hpp"

namespace tlb::rt {

class alignas(64) Mailbox {
public:
  /// Pre-grow the producer queue and consumer stash to hold `depth`
  /// envelopes each without reallocating. Capacities only ever grow from
  /// there, so a depth chosen at or above the protocol's peak burst makes
  /// the steady-state delivery path allocation-free. Construction-time
  /// only (the caller owns the mailbox exclusively; no lock needed).
  void reserve(std::size_t depth) {
    queue_.reserve(depth);
    stash_.reserve(depth);
  }

  /// Returns the queue depth after the push (for depth watermarking),
  /// counting messages the consumer has swapped out but not yet run.
  /// Takes an rvalue reference (as do the other push entry points) so the
  /// envelope is move-constructed exactly once, into the queue slot —
  /// by-value plumbing would cost one relocate dispatch per call frame.
  std::size_t push(Envelope&& env) TLB_EXCLUDES(lock_) {
    SpinLockGuard lock{lock_};
    queue_.push_back(std::move(env));
    queue_size_.store(queue_.size(), std::memory_order_release);
    return queue_.size() + stash_size_.load(std::memory_order_relaxed);
  }

  /// Coalesced push: append a whole per-destination batch under one lock
  /// (the sender-side flush path). The batch is consumed (left empty, with
  /// its capacity intact for reuse). Returns the post-push depth.
  std::size_t push_batch(std::vector<Envelope>& batch) TLB_EXCLUDES(lock_) {
    std::size_t depth;
    {
      SpinLockGuard lock{lock_};
      queue_.insert(queue_.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
      queue_size_.store(queue_.size(), std::memory_order_release);
      depth = queue_.size() + stash_size_.load(std::memory_order_relaxed);
    }
    batch.clear();
    return depth;
  }

  /// Consumer-thread push: appends one envelope directly to the
  /// consumer-private stash, bypassing the producer queue and its lock
  /// entirely. Only legal when the calling thread IS this mailbox's single
  /// consumer — the sequential driver, which owns every mailbox and sends
  /// eagerly through this path instead of staging per-destination batches.
  /// FIFO is preserved by folding any pending producer-queue content
  /// (older by definition: driver posts or released delayed messages) into
  /// the stash first, which also keeps the stash-older-than-queue
  /// invariant consume_batch relies on. Returns the post-push depth.
  std::size_t push_consumer(Envelope&& env) TLB_EXCLUDES(lock_) {
    if (queue_size_.load(std::memory_order_acquire) > 0) {
      SpinLockGuard lock{lock_};
      stash_.insert(stash_.end(), std::make_move_iterator(queue_.begin()),
                    std::make_move_iterator(queue_.end()));
      queue_.clear();
      queue_size_.store(0, std::memory_order_relaxed);
    }
    stash_.push_back(std::move(env));
    auto const depth = stash_.size() - stash_pos_;
    stash_size_.store(depth, std::memory_order_relaxed);
    return depth;
  }

  /// The consumer's drain visit, shared by both drivers: release due
  /// delayed messages (when `do_release`), claim the producer backlog, then
  /// run `fn` on up to `max_items` (0 = all) pending envelopes in place, in
  /// FIFO order, with no staging copy. The lock is taken only when a
  /// release is due or the stash holds less than a batch while producer
  /// messages wait; `released`, when non-null, receives the number of
  /// delayed messages moved into the FIFO. Only messages pending once the
  /// claim is made are eligible this visit: envelopes a handler appends
  /// with push_consumer (the sequential driver's self-sends) wait for the
  /// next visit. The loop indexes the stash afresh on every step because
  /// such a push may reallocate it. Only legal on the consumer thread; a
  /// racing producer push that the claim misses is caught on the next
  /// visit, because the in-flight counter was incremented before the push
  /// and the quiescence loop keeps sweeping.
  template <typename Fn>
  std::size_t consume_batch(std::size_t max_items, std::uint64_t release_now,
                            bool do_release, std::size_t* released, Fn&& fn)
      TLB_EXCLUDES(lock_) {
    auto const limit = max_items == 0
                           ? std::numeric_limits<std::size_t>::max()
                           : max_items;
    if (do_release ||
        (stash_.size() - stash_pos_ < limit &&
         queue_size_.load(std::memory_order_acquire) > 0)) {
      SpinLockGuard lock{lock_};
      if (do_release) {
        auto const n = release_locked(release_now);
        if (released != nullptr) {
          *released = n;
        }
      }
      if (!queue_.empty()) {
        if (stash_pos_ == stash_.size()) {
          // Nothing pending: the O(1) swap claims the backlog and hands
          // the stash's grown capacity back to the producers.
          stash_.clear();
          stash_pos_ = 0;
          stash_.swap(queue_);
        } else {
          // Pending stash messages are strictly older than the queue, so
          // appending preserves FIFO.
          stash_.insert(stash_.end(), std::make_move_iterator(queue_.begin()),
                        std::make_move_iterator(queue_.end()));
          queue_.clear();
        }
        queue_size_.store(0, std::memory_order_relaxed);
      }
    }
    std::size_t const pending = stash_.size() - stash_pos_;
    std::size_t const take = std::min(limit, pending);
    // Published once per visit: producers' depth reads see what stays
    // pending behind this batch.
    stash_size_.store(pending - take, std::memory_order_relaxed);
    for (std::size_t i = 0; i < take; ++i) {
      Envelope env = std::move(stash_[stash_pos_]);
      ++stash_pos_;
      fn(env);
    }
    if (stash_pos_ == stash_.size()) {
      stash_.clear();
      stash_pos_ = 0;
    } else if (stash_pos_ >= 1024 && stash_pos_ >= stash_.size() / 2) {
      // Self-send storms append while we consume, so the cursor alone
      // never empties the vector; compacting once the dead prefix
      // dominates keeps growth bounded at amortized O(1) moves/message.
      stash_.erase(stash_.begin(),
                   stash_.begin() + static_cast<std::ptrdiff_t>(stash_pos_));
      stash_pos_ = 0;
    }
    stash_size_.store(stash_.size() - stash_pos_, std::memory_order_relaxed);
    return take;
  }

  /// Park a message until the rank's drain-visit counter reaches `due`.
  void push_delayed(Envelope&& env, std::uint64_t due) TLB_EXCLUDES(lock_) {
    SpinLockGuard lock{lock_};
    delayed_.push_back(Delayed{std::move(env), due});
  }

  /// Drain everything — queued, stashed, and delayed alike, due or not —
  /// into `out` (appended). Used by the runtime's crash purge and abort
  /// flush; both run on the consumer's thread (or after workers joined).
  /// Returns the total removed; `delayed_removed`, when non-null, receives
  /// how many of them came from the delay queue.
  std::size_t drain_all(std::vector<Envelope>& out,
                        std::size_t* delayed_removed = nullptr)
      TLB_EXCLUDES(lock_) {
    std::size_t n = stash_.size() - stash_pos_;
    out.reserve(out.size() + n);
    for (; stash_pos_ < stash_.size(); ++stash_pos_) {
      out.push_back(std::move(stash_[stash_pos_]));
    }
    stash_.clear();
    stash_pos_ = 0;
    stash_size_.store(0, std::memory_order_relaxed);
    SpinLockGuard lock{lock_};
    n += queue_.size() + delayed_.size();
    out.reserve(out.size() + queue_.size() + delayed_.size());
    for (Envelope& env : queue_) {
      out.push_back(std::move(env));
    }
    queue_.clear();
    queue_size_.store(0, std::memory_order_relaxed);
    for (Delayed& d : delayed_) {
      out.push_back(std::move(d.env));
    }
    if (delayed_removed != nullptr) {
      *delayed_removed = delayed_.size();
    }
    delayed_.clear();
    return n;
  }

  [[nodiscard]] bool empty() const TLB_EXCLUDES(lock_) {
    SpinLockGuard lock{lock_};
    return queue_.empty() && delayed_.empty() &&
           stash_size_.load(std::memory_order_relaxed) == 0;
  }

  [[nodiscard]] std::size_t size() const TLB_EXCLUDES(lock_) {
    SpinLockGuard lock{lock_};
    return queue_.size() + delayed_.size() +
           stash_size_.load(std::memory_order_relaxed);
  }

private:
  struct Delayed {
    Envelope env;
    std::uint64_t due = 0;
  };

  /// Moves due delayed messages into the FIFO; lock_ must be held.
  std::size_t release_locked(std::uint64_t now) TLB_REQUIRES(lock_) {
    std::size_t released = 0;
    for (std::size_t i = 0; i < delayed_.size();) {
      if (delayed_[i].due <= now) {
        queue_.push_back(std::move(delayed_[i].env));
        delayed_[i] = std::move(delayed_.back());
        delayed_.pop_back();
        ++released;
      } else {
        ++i;
      }
    }
    return released;
  }

  mutable SpinLock lock_;
  std::vector<Envelope> queue_ TLB_GUARDED_BY(lock_);  ///< producers
  std::vector<Delayed> delayed_ TLB_GUARDED_BY(lock_);
  /// Mirror of queue_.size(), maintained under lock_ but readable without
  /// it: lets the consumer's drain skip the lock entirely when no producer
  /// push is pending (the common case once the stash is primed).
  std::atomic<std::size_t> queue_size_{0};
  /// Swap-drained backlog, touched only by the single consumer: messages
  /// [stash_pos_, size) are pending, in FIFO order. The outstanding count
  /// is mirrored in an atomic so push-depth watermarks and the quiescence
  /// audit's empty()/size() stay race-free.
  std::vector<Envelope> stash_;
  std::size_t stash_pos_ = 0;
  std::atomic<std::size_t> stash_size_{0};
};

} // namespace tlb::rt
