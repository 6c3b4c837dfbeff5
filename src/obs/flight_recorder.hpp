#pragma once

/// \file flight_recorder.hpp
/// The crash flight recorder: when something goes irrecoverably wrong —
/// a TLB_INVARIANT fires in abort mode, the fault plane's injected crash
/// trips, or run_until_quiescent exhausts its poll budget — the bounded
/// always-on observability buffers (phase timeline, causal-log tail,
/// metrics registry) are dumped as one JSON postmortem document before
/// the process dies or the run is abandoned. tools/tlb_report ingests
/// the dump directly.
///
/// The dump is one-shot per process: the first trigger wins, so cascading
/// failures (an invariant firing during an abort flush) cannot shred the
/// recording or spray files. Tests re-arm through rearm_flight_recorder().
///
/// Output path resolution: set_flight_record_path() override, else the
/// TLB_FLIGHT_RECORD environment variable, else "tlb_flight_record.json"
/// in the working directory.
///
/// Dumping requires telemetry to be runtime-enabled — with telemetry off
/// the buffers are empty and a postmortem would be noise (the chaos suite
/// injects crashes by the thousand). install_flight_recorder() hooks
/// audit::set_failure_hook and is called automatically when telemetry is
/// switched on; the other two triggers live in the runtime and the fault
/// plane.

#include <string>

#include "obs/telemetry.hpp"

namespace tlb::obs {

/// Write the postmortem document now, if telemetry is enabled and no dump
/// has happened yet. `reason` is recorded verbatim (an invariant message,
/// "fault_crash", "quiesce_budget_exhausted", ...). Returns the path
/// written, or "" when suppressed (disabled / already dumped) or the file
/// could not be opened (reported on stderr — never throws; this runs on
/// abort paths).
std::string dump_flight_record(char const* reason);

/// True once a dump has been written this process (until re-armed).
[[nodiscard]] bool flight_record_dumped();

/// Test hook: forget that a dump happened so the next trigger records.
void rearm_flight_recorder();

/// Where the next dump will go (see resolution order above).
[[nodiscard]] std::string flight_record_path();
/// Override the output path ("" returns to env/default resolution).
void set_flight_record_path(std::string path);

/// Install the audit failure hook so abort-mode invariant violations dump
/// before aborting. Idempotent; called by obs::set_enabled(true).
void install_flight_recorder();

} // namespace tlb::obs
