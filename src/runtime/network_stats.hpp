#pragma once

/// \file network_stats.hpp
/// Aggregate traffic counters maintained by the runtime. Used by the LB
/// cost model (gossip traffic, migration volume), the micro-benches, and
/// the `net.*` metrics the runtime publishes (Runtime::publish_metrics).

#include <array>
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

/// The traffic counters: one plain block per driver loop (each worker's
/// SendCoalescer) plus the runtime's own, which records the driver
/// thread's posts and retries. Nothing here is atomic: a block is only
/// written by the thread that owns it, and the runtime folds every
/// worker's block into its own at the end of each run, so the totals read
/// at quiescent points cover everything sent.
struct NetworkStats {
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

  void record_send(bool local, std::size_t nbytes,
                   MessageKind kind = MessageKind::other) {
    ++messages;
    bytes += nbytes;
    local_messages += local ? 1 : 0;
    auto const k = static_cast<std::size_t>(kind);
    ++kind_messages[k];
    kind_bytes[k] += nbytes;
  }

  void record_drop(MessageKind kind) {
    ++kind_dropped[static_cast<std::size_t>(kind)];
  }
  void record_delay(MessageKind kind) {
    ++kind_delayed[static_cast<std::size_t>(kind)];
  }
  void record_duplicate(MessageKind kind) {
    ++kind_duplicated[static_cast<std::size_t>(kind)];
  }
  void record_retry(MessageKind kind) {
    ++kind_retried[static_cast<std::size_t>(kind)];
  }

  /// Record a mailbox's post-push depth (high-watermark gauge). Called
  /// on every send, so it stores only when the watermark rises.
  void record_mailbox_depth(std::size_t depth) {
    if (depth > max_mailbox_depth) {
      max_mailbox_depth = depth;
    }
  }

  void record_flush(std::size_t flushed, std::size_t depth) {
    ++coalesced_flushes;
    coalesced_messages += flushed;
    record_mailbox_depth(depth);
  }

  /// Add another block's counts into this one; the depth gauge keeps the
  /// larger watermark.
  void fold(NetworkStats const& other) {
    messages += other.messages;
    bytes += other.bytes;
    local_messages += other.local_messages;
    for (std::size_t k = 0; k < num_message_kinds; ++k) {
      kind_messages[k] += other.kind_messages[k];
      kind_bytes[k] += other.kind_bytes[k];
      kind_dropped[k] += other.kind_dropped[k];
      kind_delayed[k] += other.kind_delayed[k];
      kind_duplicated[k] += other.kind_duplicated[k];
      kind_retried[k] += other.kind_retried[k];
    }
    record_mailbox_depth(other.max_mailbox_depth);
    coalesced_flushes += other.coalesced_flushes;
    coalesced_messages += other.coalesced_messages;
  }
};

/// The name the benchmark harness reads a run's traffic through.
using NetworkStatsSnapshot = NetworkStats;

} // namespace tlb::rt
