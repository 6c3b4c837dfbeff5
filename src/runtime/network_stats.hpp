#pragma once

/// \file network_stats.hpp
/// Aggregate traffic counters maintained by the runtime. Used by the LB
/// cost model (gossip traffic, migration volume), the micro-benches, and
/// the telemetry registry fold-in (Runtime::publish_metrics).

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tlb::rt {

/// Protocol category of a message, for per-category accounting. Sends
/// default to `other`; the protocol layers tag their traffic explicitly.
enum class MessageKind : std::uint8_t {
  other = 0,   ///< untagged application traffic
  gossip,      ///< inform-epoch knowledge propagation (Algorithm 1)
  transfer,    ///< transfer-pass proposals and NACK bounces (Algorithm 2)
  migration,   ///< committed task payload movement
  termination, ///< termination-detection traffic (no protocol sends it)
};

inline constexpr std::size_t num_message_kinds = 5;

[[nodiscard]] constexpr char const* message_kind_name(MessageKind kind) {
  switch (kind) {
  case MessageKind::other:
    return "other";
  case MessageKind::gossip:
    return "gossip";
  case MessageKind::transfer:
    return "transfer";
  case MessageKind::migration:
    return "migration";
  case MessageKind::termination:
    return "termination";
  }
  return "unknown";
}

/// Snapshot of the counters (plain struct for returning by value).
struct NetworkStatsSnapshot {
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t local_messages = 0; ///< sends where from == to
  /// Per-category message/byte counts, indexed by MessageKind. The
  /// aggregate fields above remain the sums over every category.
  std::array<std::size_t, num_message_kinds> kind_messages{};
  std::array<std::size_t, num_message_kinds> kind_bytes{};
  /// Fault-plane outcomes per category (all zero when no fault plane is
  /// installed). Dropped counts both send-time drops and crash purges;
  /// retried counts protocol-level resends (migration/transfer handshake
  /// retries), recorded by the protocol layers via Runtime::record_retry.
  std::array<std::size_t, num_message_kinds> kind_dropped{};
  std::array<std::size_t, num_message_kinds> kind_delayed{};
  std::array<std::size_t, num_message_kinds> kind_duplicated{};
  std::array<std::size_t, num_message_kinds> kind_retried{};
  /// Deepest any mailbox has been (post-push size) since the last reset.
  std::size_t max_mailbox_depth = 0;
  /// Sender-side coalescing effectiveness: locked batch pushes performed
  /// and the messages they carried. messages/flushes is the mean batch
  /// size; flushes is (within epsilon) the lock acquisitions the send
  /// plane cost, versus one per message before coalescing.
  std::size_t coalesced_flushes = 0;
  std::size_t coalesced_messages = 0;
};

/// Plain (non-atomic) counter block accumulated privately by one worker
/// during a run and folded into the shared NetworkStats at run end. The
/// totals are only read at quiescent points, so per-message accounting
/// does not need to be globally visible mid-run — keeping it worker-local
/// turns four-plus atomic RMWs per send into plain increments, one of the
/// larger single wins in the message plane.
struct LocalNetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t local_messages = 0;
  std::array<std::uint64_t, num_message_kinds> kind_messages{};
  std::array<std::uint64_t, num_message_kinds> kind_bytes{};
  std::uint64_t max_mailbox_depth = 0;
  std::uint64_t coalesced_flushes = 0;
  std::uint64_t coalesced_messages = 0;

  void record_send(bool local, std::size_t nbytes, MessageKind kind) {
    ++messages;
    bytes += nbytes;
    local_messages += local ? 1 : 0;
    auto const k = static_cast<std::size_t>(kind);
    ++kind_messages[k];
    kind_bytes[k] += nbytes;
  }

  void record_flush(std::size_t flushed, std::size_t depth) {
    ++coalesced_flushes;
    coalesced_messages += flushed;
    if (depth > max_mailbox_depth) {
      max_mailbox_depth = depth;
    }
  }
};

/// Thread-safe counters. Relaxed atomics: the totals are only read at
/// quiescent points.
class NetworkStats {
public:
  void record_send(bool local, std::size_t bytes,
                   MessageKind kind = MessageKind::other) {
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (local) {
      local_messages_.fetch_add(1, std::memory_order_relaxed);
    }
    auto const k = static_cast<std::size_t>(kind);
    kind_messages_[k].fetch_add(1, std::memory_order_relaxed);
    kind_bytes_[k].fetch_add(bytes, std::memory_order_relaxed);
  }

  void record_drop(MessageKind kind) {
    kind_dropped_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void record_delay(MessageKind kind) {
    kind_delayed_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void record_duplicate(MessageKind kind) {
    kind_duplicated_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void record_retry(MessageKind kind) {
    kind_retried_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Fold a worker's run-private counters into the shared totals (called
  /// once per worker per run, at a point where no handler is executing).
  void fold(LocalNetworkStats const& local) {
    messages_.fetch_add(local.messages, std::memory_order_relaxed);
    bytes_.fetch_add(local.bytes, std::memory_order_relaxed);
    local_messages_.fetch_add(local.local_messages,
                              std::memory_order_relaxed);
    for (std::size_t k = 0; k < num_message_kinds; ++k) {
      kind_messages_[k].fetch_add(local.kind_messages[k],
                                  std::memory_order_relaxed);
      kind_bytes_[k].fetch_add(local.kind_bytes[k],
                               std::memory_order_relaxed);
    }
    record_mailbox_depth(local.max_mailbox_depth);
    coalesced_flushes_.fetch_add(local.coalesced_flushes,
                                 std::memory_order_relaxed);
    coalesced_messages_.fetch_add(local.coalesced_messages,
                                  std::memory_order_relaxed);
  }

  /// Record a mailbox's post-push depth (high-watermark gauge).
  void record_mailbox_depth(std::size_t depth) {
    std::size_t cur = max_mailbox_depth_.load(std::memory_order_relaxed);
    while (depth > cur && !max_mailbox_depth_.compare_exchange_weak(
                              cur, depth, std::memory_order_relaxed)) {
    }
  }

  void reset() {
    messages_.store(0, std::memory_order_relaxed);
    bytes_.store(0, std::memory_order_relaxed);
    local_messages_.store(0, std::memory_order_relaxed);
    for (std::size_t k = 0; k < num_message_kinds; ++k) {
      kind_messages_[k].store(0, std::memory_order_relaxed);
      kind_bytes_[k].store(0, std::memory_order_relaxed);
      kind_dropped_[k].store(0, std::memory_order_relaxed);
      kind_delayed_[k].store(0, std::memory_order_relaxed);
      kind_duplicated_[k].store(0, std::memory_order_relaxed);
      kind_retried_[k].store(0, std::memory_order_relaxed);
    }
    max_mailbox_depth_.store(0, std::memory_order_relaxed);
    coalesced_flushes_.store(0, std::memory_order_relaxed);
    coalesced_messages_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] NetworkStatsSnapshot snapshot() const {
    NetworkStatsSnapshot snap;
    snap.messages = messages_.load(std::memory_order_relaxed);
    snap.bytes = bytes_.load(std::memory_order_relaxed);
    snap.local_messages = local_messages_.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < num_message_kinds; ++k) {
      snap.kind_messages[k] = kind_messages_[k].load(std::memory_order_relaxed);
      snap.kind_bytes[k] = kind_bytes_[k].load(std::memory_order_relaxed);
      snap.kind_dropped[k] = kind_dropped_[k].load(std::memory_order_relaxed);
      snap.kind_delayed[k] = kind_delayed_[k].load(std::memory_order_relaxed);
      snap.kind_duplicated[k] =
          kind_duplicated_[k].load(std::memory_order_relaxed);
      snap.kind_retried[k] = kind_retried_[k].load(std::memory_order_relaxed);
    }
    snap.max_mailbox_depth =
        max_mailbox_depth_.load(std::memory_order_relaxed);
    snap.coalesced_flushes =
        coalesced_flushes_.load(std::memory_order_relaxed);
    snap.coalesced_messages =
        coalesced_messages_.load(std::memory_order_relaxed);
    return snap;
  }

private:
  std::atomic<std::size_t> messages_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::size_t> local_messages_{0};
  std::array<std::atomic<std::size_t>, num_message_kinds> kind_messages_{};
  std::array<std::atomic<std::size_t>, num_message_kinds> kind_bytes_{};
  std::array<std::atomic<std::size_t>, num_message_kinds> kind_dropped_{};
  std::array<std::atomic<std::size_t>, num_message_kinds> kind_delayed_{};
  std::array<std::atomic<std::size_t>, num_message_kinds> kind_duplicated_{};
  std::array<std::atomic<std::size_t>, num_message_kinds> kind_retried_{};
  std::atomic<std::size_t> max_mailbox_depth_{0};
  std::atomic<std::size_t> coalesced_flushes_{0};
  std::atomic<std::size_t> coalesced_messages_{0};
};

} // namespace tlb::rt
