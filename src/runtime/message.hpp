#pragma once

/// \file message.hpp
/// The active-message envelope: a type-erased handler that executes on the
/// destination rank, plus a 16-byte routing header. Payloads live inside
/// the closure (the in-process analogue of serialization). The modeled
/// wire size is accounted into NetworkStats at send time and is not
/// carried.
///
/// The envelope is exactly one 64-byte cache line, and 64-aligned, so a
/// mailbox push, a stash move and a delivery each touch one line. The
/// causal stamp (obs::CausalStamp, 32 bytes) is not carried either: while
/// telemetry is on the runtime appends it to a per-Runtime side table
/// (obs::StampTable) and the envelope keeps only the slot index.
///
/// The handler is an InlineHandler: the closure lives inside the envelope
/// itself (no per-message heap allocation on the hot paths), which makes
/// the envelope move-only. Code that needs a real duplicate — the fault
/// plane's duplicate fault, post_all's fanout — clones explicitly.

#include <cstdint>

#include "runtime/inline_handler.hpp"
#include "runtime/network_stats.hpp"
#include "support/types.hpp"

namespace tlb::rt {

class RankContext;

/// Handler executed on the destination rank's scheduler. Small-buffer
/// optimized and move-only; see inline_handler.hpp.
using Handler = InlineHandler;

struct alignas(64) Envelope {
  Envelope() = default;
  Envelope(RankId from_, RankId to_, Handler handler_,
           MessageKind kind_ = MessageKind::other, bool fault_exempt_ = false)
      : from{from_},
        to{to_},
        kind{kind_},
        fault_exempt{fault_exempt_},
        handler{std::move(handler_)} {}

  RankId from = invalid_rank; ///< invalid_rank marks driver-injected work
  RankId to = invalid_rank;
  /// 1-based slot of this message's causal stamp in the runtime's side
  /// table, assigned at send time while telemetry is on; 0 = unstamped.
  /// Constructing envelopes outside src/runtime bypasses the stamping
  /// (and is lint-forbidden: no-envelope-outside-runtime).
  std::uint32_t trace = 0;
  /// Protocol category, carried so drops/purges can be accounted per kind.
  MessageKind kind = MessageKind::other;
  /// Set on messages the fault plane must leave alone: clones it created
  /// itself (a duplicate must not fission) and protocol-internal retry
  /// triggers injected by the driver.
  bool fault_exempt = false;
  Handler handler;
};

static_assert(sizeof(Envelope) == 64 && alignof(Envelope) == 64,
              "an envelope is one cache line");

} // namespace tlb::rt
