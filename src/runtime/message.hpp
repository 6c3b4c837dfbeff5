#pragma once

/// \file message.hpp
/// The active-message envelope. A message is a type-erased handler that
/// executes on the destination rank, plus accounting metadata. Payloads
/// live inside the closure (the in-process analogue of serialization); the
/// `bytes` field models what serialization would have put on the wire so
/// network statistics remain meaningful.
///
/// The handler is an InlineHandler: the closure lives inside the envelope
/// itself (no per-message heap allocation on the hot paths), which makes
/// the envelope move-only. Code that needs a real duplicate — the fault
/// plane's duplicate fault, post_all's fanout — clones explicitly.

#include <cstddef>

#include "obs/causal.hpp"
#include "runtime/inline_handler.hpp"
#include "runtime/network_stats.hpp"
#include "support/types.hpp"

namespace tlb::rt {

class RankContext;

/// Handler executed on the destination rank's scheduler. Small-buffer
/// optimized and move-only; see inline_handler.hpp.
using Handler = InlineHandler;

struct Envelope {
  Envelope() = default;
  /// Positional construction mirrors the old aggregate layout; the
  /// trailing causal stamp starts empty and is filled in by the runtime.
  Envelope(RankId from_, RankId to_, std::size_t bytes_, Handler handler_,
           MessageKind kind_ = MessageKind::other, bool fault_exempt_ = false)
      : from{from_},
        to{to_},
        bytes{bytes_},
        handler{std::move(handler_)},
        kind{kind_},
        fault_exempt{fault_exempt_} {}

  RankId from = invalid_rank; ///< invalid_rank marks driver-injected work
  RankId to = invalid_rank;
  std::size_t bytes = 0;      ///< modeled wire size of the payload
  Handler handler;
  /// Protocol category, carried so drops/purges can be accounted per kind.
  MessageKind kind = MessageKind::other;
  /// Set on messages the fault plane must leave alone: clones it created
  /// itself (a duplicate must not fission) and protocol-internal retry
  /// triggers injected by the driver.
  bool fault_exempt = false;
  /// Causal identity (origin rank, LB step, parent span id, hop count),
  /// stamped by the runtime at send time when telemetry is enabled —
  /// id == 0 otherwise. Constructing envelopes outside src/runtime
  /// bypasses the stamping (and is lint-forbidden:
  /// no-envelope-outside-runtime).
  obs::CausalStamp cause;
};

} // namespace tlb::rt
