#pragma once

/// \file causal.hpp
/// Causal tracing: every envelope sent while telemetry is enabled carries
/// a CausalStamp (origin rank, LB step, parent span id, hop count); the
/// runtime stamps it at send time from the stamp of the message whose
/// handler performed the send, so arbitrary fan-out chains — gossip
/// forwards, transfer proposals, migration payloads — stay linked from
/// root post to final delivery. Each delivery appends a CausalEvent to
/// the process-wide CausalLog (a bounded per-thread log, like the
/// Tracer's), and compute_critical_path() reconstructs the deepest
/// chain ending at quiescence with per-rank / per-kind wall-time
/// attribution — the "why was this step slow" reducer that tlb_report and
/// the flight recorder build on.
///
/// Identity scheme: id = ((sender_slot + 1) << 40) | per-sender sequence
/// number, where slot P is the driver. Ids are therefore unique, nonzero,
/// and — because each slot's counter is only advanced by that rank's
/// (serialized) handlers — deterministic across runs of a seeded
/// workload. A fault-plane duplicate shares its original's id: the clone
/// IS the same logical message, and the reducer treats the first recorded
/// delivery as authoritative.
///
/// Stamps do not ride in the envelope. Each rt::Runtime keeps a
/// StampTable that a stamped send appends to; the envelope carries the
/// 1-based slot (rt::Envelope::trace). With telemetry runtime-disabled,
/// the only residue on the message paths is the enabled() load and a zero
/// slot per envelope (see bench/micro_causal.cpp).

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/thread_log.hpp"
#include "support/spinlock.hpp"
#include "support/thread_annotations.hpp"
#include "support/types.hpp"

namespace tlb::obs {

/// Causal identity carried by rt::Envelope. id == 0 marks an unstamped
/// message (telemetry was off at send time); parent == 0 marks a root
/// (driver-posted) message.
struct CausalStamp {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  RankId origin = invalid_rank; ///< rank whose root work started the chain
  std::uint32_t step = 0;       ///< LB step/phase active at the chain root
  std::uint16_t hop = 0;        ///< distance from the chain root
};

/// The causal stamps (and modeled wire sizes) of the stamped messages one
/// runtime has sent since it last quiesced. Written only while telemetry
/// is on: a stamped send appends and stores the returned slot in its
/// envelope, a traced delivery copies its slot's entry out. Any thread may
/// append or read, so both take the lock; a reader gets a copy because a
/// concurrent append may reallocate the table. The runtime clears it when
/// run_until_quiescent returns, when no envelope naming a slot remains.
class StampTable {
public:
  struct Entry {
    CausalStamp stamp;
    std::uint64_t bytes = 0; ///< modeled wire size of the message
  };

  /// Store `entry`; returns its slot, 1-based (0 means unstamped).
  [[nodiscard]] std::uint32_t append(Entry const& entry) TLB_EXCLUDES(lock_);

  /// A copy of `slot`'s entry; slot 0 yields an empty entry (id 0).
  [[nodiscard]] Entry at(std::uint32_t slot) const TLB_EXCLUDES(lock_);

  /// Drop every entry, keeping the capacity.
  void clear() TLB_EXCLUDES(lock_);

private:
  mutable SpinLock lock_;
  std::vector<Entry> entries_ TLB_GUARDED_BY(lock_);
};

/// One delivery, recorded after the handler ran. `kind` must be a string
/// with static storage duration (message_kind_name() literals on the
/// recording path; interned copies when parsed back by tlb_report).
struct CausalEvent {
  CausalStamp stamp;
  RankId from = invalid_rank;
  RankId to = invalid_rank;
  char const* kind = "";
  std::uint64_t bytes = 0;
  std::int64_t ts_us = 0;  ///< handler start (tracer epoch)
  std::int64_t dur_us = 0; ///< handler execution time
};

/// Process-wide delivery log: a bounded per-thread log (obs/thread_log.hpp,
/// the Tracer's storage too; 128Ki events per thread, drop-newest). Under
/// the sequential driver there is a single buffer and the event order is
/// the (deterministic) delivery order. The capacity is larger than the
/// Tracer's: a multi-phase 64-rank demo delivers tens of thousands of
/// messages per phase and the critical path is only as good as the log's
/// coverage.
class CausalLog : public ThreadLog<CausalEvent, 1u << 17> {
public:
  [[nodiscard]] static CausalLog& instance();

  /// Current LB step, stamped onto root messages. Bumped by the LB
  /// manager at each invocation (driver-side, between quiescent points).
  [[nodiscard]] std::uint32_t step() const {
    return step_.load(std::memory_order_relaxed);
  }
  void set_step(std::uint32_t step) {
    step_.store(step, std::memory_order_relaxed);
  }

  /// Write the log as a JSON document:
  ///   {"step": N, "dropped": D, "events": [{...}, ...]}.
  /// Call at quiescent points (see ThreadLog::for_each).
  void write_json(std::ostream& os) const;

private:
  std::atomic<std::uint32_t> step_{0};
};

/// Serialize one event as a JSON object through an already-open writer
/// scope — shared by CausalLog::write_json and the flight recorder.
class JsonWriter;
void write_causal_event(JsonWriter& w, CausalEvent const& event);

/// Wall time attributed to one key (a rank or a message kind) along the
/// critical path.
struct PathAttribution {
  std::string key;
  std::int64_t us = 0;
  std::size_t hops = 0;
};

/// The reconstructed longest causal chain. Deterministic given the event
/// set: the terminal event is the one with the greatest hop count (ties
/// broken by larger id — the latest-created among the deepest), and the
/// chain is walked back through parent ids to its root.
struct CriticalPath {
  std::vector<CausalEvent> chain; ///< root first, terminal last
  std::int64_t handler_us = 0;    ///< sum of dur_us along the chain
  /// Attribution along the chain, sorted by descending us (ties by key).
  std::vector<PathAttribution> by_rank;
  std::vector<PathAttribution> by_kind;
};

/// Reduce a delivery log to its critical path. Events with id == 0
/// (unstamped) are ignored; duplicate ids keep their first occurrence.
/// Returns an empty chain when no stamped event exists.
[[nodiscard]] CriticalPath
compute_critical_path(std::vector<CausalEvent> const& events);

} // namespace tlb::obs
