#include "obs/flight_recorder.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/causal.hpp"
#include "obs/json.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/registry.hpp"
#include "support/check.hpp"
#include "support/spinlock.hpp"
#include "support/thread_annotations.hpp"

namespace tlb::obs {

namespace {

/// First trigger wins; tests re-arm explicitly.
std::atomic<bool> g_dumped{false};

SpinLock g_path_mutex;
std::string g_path_override TLB_GUARDED_BY(g_path_mutex);

/// How much of the causal log's tail the postmortem carries. The full log
/// goes to the regular --telemetry export; the postmortem only needs the
/// recent history leading up to the failure.
constexpr std::size_t kCausalTailEvents = 256;

void audit_failure_hook(char const* what) {
  // The report() caller aborts right after we return; everything here
  // must therefore complete synchronously and never throw.
  (void)dump_flight_record(what);
}

} // namespace

std::string flight_record_path() {
  {
    SpinLockGuard lock{g_path_mutex};
    if (!g_path_override.empty()) {
      return g_path_override;
    }
  }
  char const* const env = std::getenv("TLB_FLIGHT_RECORD");
  if (env != nullptr && env[0] != '\0') {
    return env;
  }
  return "tlb_flight_record.json";
}

void set_flight_record_path(std::string path) {
  SpinLockGuard lock{g_path_mutex};
  g_path_override = std::move(path);
}

bool flight_record_dumped() {
  return g_dumped.load(std::memory_order_acquire);
}

void rearm_flight_recorder() {
  g_dumped.store(false, std::memory_order_release);
}

void install_flight_recorder() {
  audit::set_failure_hook(&audit_failure_hook);
}

std::string dump_flight_record(char const* reason) {
  if (!enabled()) {
    return {};
  }
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) {
    return {};
  }
  std::string const path = flight_record_path();
  // Plain ofstream, not open_output_file: this runs on abort paths where
  // a throw would turn a diagnosed failure into std::terminate.
  std::ofstream os{path};
  if (!os) {
    std::fprintf(stderr, "tlb: flight recorder: cannot open %s\n",
                 path.c_str());
    return {};
  }
  auto const timeline = PhaseTimeline::instance().samples();
  auto causal = CausalLog::instance().snapshot();
  auto metrics = registry().snapshot();
  sort_samples(metrics);

  JsonWriter w{os};
  w.begin_object();
  w.kv("reason", reason);
  w.kv("step",
       static_cast<unsigned long long>(CausalLog::instance().step()));
  w.kv("timeline_total_recorded",
       static_cast<unsigned long long>(
           PhaseTimeline::instance().total_recorded()));
  w.key("timeline").begin_array();
  for (PhaseSample const& sample : timeline) {
    write_phase_sample(w, sample);
  }
  w.end_array();
  w.kv("causal_events_total", static_cast<unsigned long long>(causal.size()));
  w.key("causal_tail").begin_array();
  std::size_t const tail_start =
      causal.size() > kCausalTailEvents ? causal.size() - kCausalTailEvents
                                        : 0;
  for (std::size_t i = tail_start; i < causal.size(); ++i) {
    write_causal_event(w, causal[i]);
  }
  w.end_array();
  w.key("metrics").begin_array();
  write_metric_samples_json(w, metrics);
  w.end_array();
  w.end_object();
  os << '\n';
  os.flush();
  std::fprintf(stderr, "tlb: flight record written to %s (reason: %s)\n",
               path.c_str(), reason);
  return path;
}

} // namespace tlb::obs
