#pragma once

/// \file report.hpp
/// tlb_report core: ingest the telemetry layer's JSON artifacts (causal
/// delivery log, phase timeline, metrics registry snapshot, LB
/// introspection reports, or a flight-recorder postmortem that bundles
/// them) and render a human-readable postmortem — the reconstructed
/// critical path, top-k straggler ranks, and the per-phase imbalance
/// evolution table.
///
/// The core is a library (linked against tlb_obs for the JSON parser and
/// the critical-path reducer) so tests can drive it on synthetic
/// documents; tools/tlb_report/main.cpp is the thin CLI.

#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "obs/causal.hpp"
#include "obs/json_in.hpp"
#include "obs/phase_timeline.hpp"

namespace tlb::report {

/// CausalEvent::kind is a `char const*` with static storage duration when
/// produced in-process; parsed-back events need the same lifetime, so the
/// interner owns one stable copy of each distinct kind string.
class KindInterner {
public:
  [[nodiscard]] char const* intern(std::string const& s) {
    return strings_.insert(s).first->c_str();
  }

private:
  // std::set: node-based, element addresses are stable across inserts.
  std::set<std::string> strings_;
};

/// One flattened metric sample from a registry JSON export.
struct MetricRow {
  std::string name;
  std::string labels; ///< rendered as {k="v",...}, empty when unlabeled
  std::string kind;   ///< "counter" | "gauge"
  std::int64_t value = 0;
};

/// One LB invocation summary from an lb_report JSON export.
struct LbRow {
  std::uint64_t phase = 0;
  std::string strategy;
  double initial_imbalance = 0.0;
  double final_imbalance = 0.0;
  std::uint64_t transfers_accepted = 0;
  std::uint64_t transfers_rejected = 0;
  std::uint64_t transfer_nacks = 0;
};

/// Everything the renderer works from. Populate via the load_* functions
/// below (any subset; sections without data are skipped).
struct ReportInput {
  std::vector<obs::CausalEvent> causal_events;
  std::uint64_t causal_dropped = 0;
  bool have_causal = false;

  std::vector<obs::PhaseSample> timeline;
  std::uint64_t timeline_total = 0;
  bool have_timeline = false;

  std::vector<MetricRow> metrics;
  bool have_metrics = false;

  std::vector<LbRow> lb_reports;
  bool have_lb_reports = false;

  /// Set when the input came from a flight-recorder dump.
  std::string flight_reason;
  std::uint64_t flight_step = 0;
  bool have_flight = false;
};

struct ReportOptions {
  std::size_t top_k = 5;
  /// Golden-file mode: omit every wall-clock-derived column (ts/dur/us)
  /// and rank stragglers/attribution by deterministic keys (hop counts,
  /// delivery counts, bytes) instead of measured time, so the rendered
  /// report is byte-stable across runs of a seeded workload.
  bool stable = false;
};

/// Parse a causal log document ({"step","dropped","events":[...]}) into
/// `in`. Throws std::runtime_error on schema mismatch.
void load_causal(obs::JsonValue const& doc, ReportInput& in,
                 KindInterner& interner);

/// Parse a phase-timeline document ({"total_recorded","timeline":[...]}).
void load_timeline(obs::JsonValue const& doc, ReportInput& in);

/// Parse a metrics registry export ({"metrics":[...]}).
void load_metrics(obs::JsonValue const& doc, ReportInput& in);

/// Parse an LB introspection export ({"lb_reports":[...]}).
void load_lb_reports(obs::JsonValue const& doc, ReportInput& in);

/// Parse a flight-recorder postmortem ({"reason","step","timeline",
/// "causal_tail","metrics",...}) — fills the causal, timeline, and
/// metrics sections in one shot.
void load_flight_record(obs::JsonValue const& doc, ReportInput& in,
                        KindInterner& interner);

/// Render the postmortem. Returns the length of the reconstructed
/// critical-path chain (0 when no stamped causal events were available) —
/// the CLI's --require-chain gate checks it.
std::size_t render_report(std::ostream& os, ReportInput const& in,
                          ReportOptions const& opts);

} // namespace tlb::report
