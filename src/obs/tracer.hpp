#pragma once

/// \file tracer.hpp
/// Event tracer emitting Chrome `trace_event` JSON (viewable in Perfetto
/// or chrome://tracing). Two event shapes:
///
///   - spans: RAII SpanGuard records a complete ("ph":"X") event covering
///     its scope, with an optional numeric argument;
///   - instants: point events ("ph":"i").
///
/// Recording goes to a bounded per-thread log (obs/thread_log.hpp; 64Ki
/// events per thread, overflow drops the newest event and counts it),
/// written out at quiescent points by write_chrome_trace(). The
/// per-buffer lock is uncontended on the hot path — only the owning
/// thread and a quiescent-point reader ever take it — so a span costs two
/// clock reads plus one uncontended lock.
///
/// Event names and categories must be string literals (or otherwise
/// outlive the tracer): events store the pointers, not copies.
///
/// Use through the macros, which name the guard for you:
///
///   TLB_SPAN("lb", "balance");
///   TLB_SPAN_ARG("rt", "drain", "n", batch_size);
///   TLB_INSTANT("rt", "term.wave");

#include <cstdint>
#include <iosfwd>

#include "obs/telemetry.hpp"
#include "obs/thread_log.hpp"

namespace tlb::obs {

struct TraceEvent {
  char const* name = nullptr;
  char const* cat = nullptr;
  std::int64_t ts_us = 0;  ///< microseconds since tracer epoch
  std::int64_t dur_us = 0; ///< complete events; ignored for instants
  bool instant = false;
  bool has_arg = false;
  char const* arg_name = nullptr;
  double arg_value = 0.0;
};

class Tracer : public ThreadLog<TraceEvent, 1u << 16> {
public:
  /// The process-wide tracer used by the macros.
  [[nodiscard]] static Tracer& instance();

  Tracer();

  /// Microseconds since the tracer epoch (steady clock).
  [[nodiscard]] std::int64_t now_us() const;

  /// Write everything recorded so far as a Chrome trace JSON document
  /// (non-destructive), one `tid` per recording thread. Call at quiescent
  /// points (see ThreadLog::for_each).
  void write_chrome_trace(std::ostream& os) const;

private:
  std::int64_t epoch_ns_ = 0;
};

/// RAII span: records a complete event covering its lifetime when
/// telemetry is enabled, and is two branches otherwise.
class SpanGuard {
public:
  SpanGuard(char const* cat, char const* name) {
    if (enabled()) {
      start(cat, name);
    }
  }

  SpanGuard(char const* cat, char const* name, char const* arg_name,
            double arg_value)
      : SpanGuard{cat, name} {
    set_arg(arg_name, arg_value);
  }

  SpanGuard(SpanGuard const&) = delete;
  SpanGuard& operator=(SpanGuard const&) = delete;

  /// Attach/overwrite the span's numeric argument (e.g. a batch size
  /// known only mid-scope).
  void set_arg(char const* arg_name, double arg_value) {
    event_.has_arg = true;
    event_.arg_name = arg_name;
    event_.arg_value = arg_value;
  }

  ~SpanGuard() {
    if (active_) {
      finish();
    }
  }

private:
  void start(char const* cat, char const* name);
  void finish();

  TraceEvent event_;
  bool active_ = false;
};

/// Record a point event (no scope).
void instant(char const* cat, char const* name);
void instant(char const* cat, char const* name, char const* arg_name,
             double arg_value);

} // namespace tlb::obs

#define TLB_OBS_CONCAT_IMPL(a, b) a##b
#define TLB_OBS_CONCAT(a, b) TLB_OBS_CONCAT_IMPL(a, b)

#define TLB_SPAN(cat, name)                                                    \
  ::tlb::obs::SpanGuard TLB_OBS_CONCAT(tlb_span_, __LINE__) { cat, name }
#define TLB_SPAN_ARG(cat, name, arg_name, arg_value)                           \
  ::tlb::obs::SpanGuard TLB_OBS_CONCAT(tlb_span_, __LINE__) {                  \
    cat, name, arg_name, static_cast<double>(arg_value)                        \
  }
#define TLB_INSTANT(cat, name) ::tlb::obs::instant(cat, name)
#define TLB_INSTANT_ARG(cat, name, arg_name, arg_value)                        \
  ::tlb::obs::instant(cat, name, arg_name, static_cast<double>(arg_value))
