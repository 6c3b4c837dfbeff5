#include "obs/tracer.hpp"

#include <chrono>
#include <ostream>

#include "obs/json.hpp"

namespace tlb::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_ns_{steady_ns()} {}

std::int64_t Tracer::now_us() const {
  return (steady_ns() - epoch_ns_) / 1000;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  // Compact output: trace files get large and Perfetto does not care.
  JsonWriter w{os, 0};
  w.begin_object();
  w.key("traceEvents").begin_array();

  // Process metadata so Perfetto shows a sensible track name.
  w.begin_object();
  w.kv("ph", "M");
  w.kv("pid", 1);
  w.kv("tid", 0);
  w.kv("name", "process_name");
  w.key("args").begin_object();
  w.kv("name", "tempered-lb");
  w.end_object();
  w.end_object();

  for_each([&w](std::size_t tid, TraceEvent const& e) {
    w.begin_object();
    w.kv("ph", e.instant ? "i" : "X");
    w.kv("name", e.name);
    w.kv("cat", e.cat);
    w.kv("ts", static_cast<long long>(e.ts_us));
    if (!e.instant) {
      w.kv("dur", static_cast<long long>(e.dur_us));
    } else {
      w.kv("s", "t"); // instant scope: thread
    }
    w.kv("pid", 1);
    w.kv("tid", static_cast<long long>(tid));
    if (e.has_arg) {
      w.key("args").begin_object();
      w.kv(e.arg_name, e.arg_value);
      w.end_object();
    }
    w.end_object();
  });
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.kv("droppedEvents", static_cast<unsigned long long>(dropped()));
  w.end_object();
}

void SpanGuard::start(char const* cat, char const* name) {
  active_ = true;
  event_.cat = cat;
  event_.name = name;
  event_.ts_us = Tracer::instance().now_us();
}

void SpanGuard::finish() {
  Tracer& tracer = Tracer::instance();
  event_.dur_us = tracer.now_us() - event_.ts_us;
  tracer.record(event_);
}

void instant(char const* cat, char const* name) {
  if (!enabled()) {
    return;
  }
  TraceEvent e;
  e.cat = cat;
  e.name = name;
  e.instant = true;
  e.ts_us = Tracer::instance().now_us();
  Tracer::instance().record(e);
}

void instant(char const* cat, char const* name, char const* arg_name,
             double arg_value) {
  if (!enabled()) {
    return;
  }
  TraceEvent e;
  e.cat = cat;
  e.name = name;
  e.instant = true;
  e.has_arg = true;
  e.arg_name = arg_name;
  e.arg_value = arg_value;
  e.ts_us = Tracer::instance().now_us();
  Tracer::instance().record(e);
}

} // namespace tlb::obs
