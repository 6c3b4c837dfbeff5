#include "report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>

namespace tlb::report {

namespace {

using obs::JsonValue;

std::uint64_t get_u64(JsonValue const& v, std::string const& key) {
  return static_cast<std::uint64_t>(v.at(key).num());
}

std::int64_t get_i64(JsonValue const& v, std::string const& key) {
  return static_cast<std::int64_t>(v.at(key).num());
}

double get_num(JsonValue const& v, std::string const& key) {
  return v.at(key).num();
}

/// Fixed-precision double for table cells: byte-stable formatting.
std::string fmt(double v, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

/// Right-align `s` in a cell of width `w` (left-align when w < 0).
std::string pad(std::string const& s, int w) {
  auto const width = static_cast<std::size_t>(w < 0 ? -w : w);
  if (s.size() >= width) {
    return s;
  }
  std::string spaces(width - s.size(), ' ');
  return w < 0 ? s + spaces : spaces + s;
}

std::string pad(std::uint64_t v, int w) { return pad(std::to_string(v), w); }

void rule(std::ostream& os, std::string const& title) {
  os << title << "\n" << std::string(title.size(), '-') << "\n";
}

void parse_causal_events(JsonValue const& events, ReportInput& in,
                         KindInterner& interner) {
  for (JsonValue const& e : events.array()) {
    obs::CausalEvent ev;
    ev.stamp.id = get_u64(e, "id");
    ev.stamp.parent = get_u64(e, "parent");
    ev.stamp.origin = static_cast<RankId>(get_i64(e, "origin"));
    ev.stamp.step = static_cast<std::uint32_t>(get_u64(e, "step"));
    ev.stamp.hop = static_cast<std::uint16_t>(get_u64(e, "hop"));
    ev.from = static_cast<RankId>(get_i64(e, "from"));
    ev.to = static_cast<RankId>(get_i64(e, "to"));
    ev.kind = interner.intern(e.at("kind").str());
    ev.bytes = get_u64(e, "bytes");
    ev.ts_us = get_i64(e, "ts_us");
    ev.dur_us = get_i64(e, "dur_us");
    in.causal_events.push_back(ev);
  }
}

void parse_timeline_samples(JsonValue const& timeline, ReportInput& in) {
  for (JsonValue const& s : timeline.array()) {
    obs::PhaseSample sample;
    sample.phase = get_u64(s, "phase");
    sample.strategy = s.at("strategy").str();
    sample.load_min = get_num(s, "load_min");
    sample.load_max = get_num(s, "load_max");
    sample.load_avg = get_num(s, "load_avg");
    sample.load_stddev = get_num(s, "load_stddev");
    sample.imbalance_before = get_num(s, "imbalance_before");
    sample.imbalance_after = get_num(s, "imbalance_after");
    sample.migrations = get_u64(s, "migrations");
    sample.migration_bytes = get_u64(s, "migration_bytes");
    sample.lb_messages = get_u64(s, "lb_messages");
    sample.lb_bytes = get_u64(s, "lb_bytes");
    sample.lb_wall_us = get_i64(s, "lb_wall_us");
    sample.aborted_rounds = get_u64(s, "aborted_rounds");
    sample.faults_dropped = get_u64(s, "faults_dropped");
    sample.faults_delayed = get_u64(s, "faults_delayed");
    sample.faults_duplicated = get_u64(s, "faults_duplicated");
    sample.faults_retried = get_u64(s, "faults_retried");
    // Decision/snapshot fields arrived with the adaptive-invocation layer;
    // older documents (pre-policy flight dumps) default to invoked.
    if (s.has("lb_invoked")) {
      sample.lb_invoked = s.at("lb_invoked").boolean();
      sample.policy = s.at("policy").str();
      sample.decision_reason = s.at("reason").str();
      sample.forecast_imbalance = get_num(s, "forecast_imbalance");
      sample.forecast_error = get_num(s, "forecast_error");
      sample.predicted_gain = get_num(s, "predicted_gain");
      sample.predicted_cost = get_num(s, "predicted_cost");
      sample.snapshot_ranks =
          static_cast<std::uint32_t>(get_u64(s, "snapshot_ranks"));
      sample.rest_load_sum = get_num(s, "rest_load_sum");
      for (JsonValue const& rl : s.at("top_loads").array()) {
        sample.top_loads.push_back(
            {static_cast<std::int32_t>(get_i64(rl, "rank")),
             get_num(rl, "load")});
      }
    }
    in.timeline.push_back(std::move(sample));
  }
}

void parse_metric_rows(JsonValue const& metrics, ReportInput& in) {
  for (JsonValue const& m : metrics.array()) {
    MetricRow row;
    row.name = m.at("name").str();
    row.kind = m.at("kind").str();
    for (auto const& [k, v] : m.at("labels").object()) {
      row.labels += row.labels.empty() ? "{" : ",";
      row.labels += k + "=\"" + v.str() + "\"";
    }
    if (!row.labels.empty()) {
      row.labels += "}";
    }
    row.value = get_i64(m, "value");
    in.metrics.push_back(std::move(row));
  }
}

/// Per-rank delivery totals for the straggler table.
struct RankTotals {
  RankId rank = invalid_rank;
  std::uint64_t deliveries = 0;
  std::uint64_t bytes = 0;
  std::int64_t handler_us = 0;
};

void render_critical_path(std::ostream& os, ReportInput const& in,
                          ReportOptions const& opts,
                          obs::CriticalPath const& path) {
  rule(os, "Critical path");
  os << "  deliveries recorded: " << in.causal_events.size()
     << "  dropped: " << in.causal_dropped << "\n";
  if (path.chain.empty()) {
    os << "  (no stamped causal events)\n\n";
    return;
  }
  auto const& root = path.chain.front();
  auto const& tail = path.chain.back();
  os << "  chain: " << path.chain.size() << " deliveries, "
     << (tail.stamp.hop + 1) << " hops deep\n";
  os << "  root:     step " << root.stamp.step << ", origin rank "
     << root.stamp.origin << ", kind " << root.kind << "\n";
  os << "  terminal: rank " << tail.to << ", kind " << tail.kind << "\n";
  if (!opts.stable) {
    os << "  handler time on path: " << path.handler_us << " us\n";
  }

  // The chain itself, elided in the middle when long.
  std::size_t const head_n = std::min<std::size_t>(path.chain.size(), 8);
  std::size_t const tail_n =
      path.chain.size() > 12 ? 4 : path.chain.size() - head_n;
  auto print_link = [&](obs::CausalEvent const& e) {
    os << "    hop " << pad(e.stamp.hop, 3) << "  rank " << pad(
        static_cast<std::uint64_t>(e.from < 0 ? 0 : e.from), 3);
    os << (e.from < 0 ? " (driver)" : "         ") << " -> rank "
       << pad(static_cast<std::uint64_t>(e.to), 3) << "  "
       << pad(std::string{e.kind}, -10) << "  " << pad(e.bytes, 6)
       << " B";
    if (!opts.stable) {
      os << "  " << pad(static_cast<std::uint64_t>(
                            e.dur_us < 0 ? 0 : e.dur_us), 6)
         << " us";
    }
    os << "\n";
  };
  for (std::size_t i = 0; i < head_n; ++i) {
    print_link(path.chain[i]);
  }
  if (head_n + tail_n < path.chain.size()) {
    os << "    ... " << (path.chain.size() - head_n - tail_n)
       << " deliveries elided ...\n";
  }
  for (std::size_t i = path.chain.size() - tail_n; i < path.chain.size();
       ++i) {
    print_link(path.chain[i]);
  }

  // Attribution. Measured-time order is non-deterministic, so stable mode
  // re-ranks by (hops desc, key asc) and drops the us column.
  auto attribution = [&](char const* title,
                         std::vector<obs::PathAttribution> rows) {
    if (rows.empty()) {
      return;
    }
    if (opts.stable) {
      std::sort(rows.begin(), rows.end(),
                [](obs::PathAttribution const& a,
                   obs::PathAttribution const& b) {
                  if (a.hops != b.hops) {
                    return a.hops > b.hops;
                  }
                  return a.key < b.key;
                });
    }
    os << "  " << title << ":\n";
    for (auto const& a : rows) {
      os << "    " << pad(a.key, -12) << " " << pad(a.hops, 4) << " hops";
      if (!opts.stable) {
        os << "  " << pad(static_cast<std::uint64_t>(a.us < 0 ? 0 : a.us), 8)
           << " us";
      }
      os << "\n";
    }
  };
  attribution("time on path by rank", path.by_rank);
  attribution("time on path by kind", path.by_kind);
  os << "\n";
}

void render_stragglers(std::ostream& os, ReportInput const& in,
                       ReportOptions const& opts) {
  std::map<RankId, RankTotals> totals;
  for (obs::CausalEvent const& e : in.causal_events) {
    RankTotals& t = totals[e.to];
    t.rank = e.to;
    ++t.deliveries;
    t.bytes += e.bytes;
    t.handler_us += e.dur_us;
  }
  if (totals.empty()) {
    return;
  }
  std::vector<RankTotals> rows;
  rows.reserve(totals.size());
  for (auto const& [rank, t] : totals) {
    rows.push_back(t);
  }
  std::sort(rows.begin(), rows.end(),
            [&](RankTotals const& a, RankTotals const& b) {
              if (opts.stable) {
                // Deterministic ranking: busiest by delivery count.
                if (a.deliveries != b.deliveries) {
                  return a.deliveries > b.deliveries;
                }
                if (a.bytes != b.bytes) {
                  return a.bytes > b.bytes;
                }
                return a.rank < b.rank;
              }
              if (a.handler_us != b.handler_us) {
                return a.handler_us > b.handler_us;
              }
              return a.rank < b.rank;
            });
  auto const k = std::min(opts.top_k, rows.size());
  rule(os, "Top stragglers (" + std::to_string(k) + " of " +
               std::to_string(rows.size()) + " ranks)");
  os << "    rank  deliveries     bytes";
  if (!opts.stable) {
    os << "  handler_us";
  }
  os << "\n";
  for (std::size_t i = 0; i < k; ++i) {
    RankTotals const& t = rows[i];
    os << "    " << pad(static_cast<std::uint64_t>(t.rank < 0 ? 0 : t.rank),
                        4)
       << "  " << pad(t.deliveries, 10) << "  " << pad(t.bytes, 8);
    if (!opts.stable) {
      os << "  " << pad(static_cast<std::uint64_t>(
                            t.handler_us < 0 ? 0 : t.handler_us), 10);
    }
    os << "\n";
  }
  os << "\n";
}

void render_timeline(std::ostream& os, ReportInput const& in,
                     ReportOptions const& opts) {
  rule(os, "Imbalance evolution (" + std::to_string(in.timeline.size()) +
               " of " + std::to_string(in.timeline_total) +
               " phases retained)");
  os << "    phase  strategy         lb    lam_before  lam_after   load_avg  "
        "migr     bytes  lb_msgs  aborted  faults";
  if (!opts.stable) {
    os << "  lb_wall_us";
  }
  os << "\n";
  for (obs::PhaseSample const& s : in.timeline) {
    auto const faults = s.faults_dropped + s.faults_delayed +
                        s.faults_duplicated + s.faults_retried;
    os << "    " << pad(s.phase, 5) << "  " << pad(s.strategy, -15) << "  "
       << pad(s.lb_invoked ? "inv" : "skip", -4) << "  "
       << pad(fmt(s.imbalance_before), 10) << "  "
       << pad(fmt(s.imbalance_after), 9) << "  " << pad(fmt(s.load_avg, 1), 9)
       << "  " << pad(s.migrations, 4) << "  " << pad(s.migration_bytes, 8)
       << "  " << pad(s.lb_messages, 7) << "  " << pad(s.aborted_rounds, 7)
       << "  " << pad(faults, 6);
    if (!opts.stable) {
      os << "  " << pad(static_cast<std::uint64_t>(
                            s.lb_wall_us < 0 ? 0 : s.lb_wall_us), 10);
    }
    os << "\n";
  }
  os << "\n";
}

void render_lb_reports(std::ostream& os, ReportInput const& in) {
  rule(os, "LB invocations (" + std::to_string(in.lb_reports.size()) + ")");
  os << "    phase  strategy         lam_before  lam_after  accepted  "
        "rejected  nacks\n";
  for (LbRow const& r : in.lb_reports) {
    os << "    " << pad(r.phase, 5) << "  " << pad(r.strategy, -15) << "  "
       << pad(fmt(r.initial_imbalance), 10) << "  "
       << pad(fmt(r.final_imbalance), 9) << "  "
       << pad(r.transfers_accepted, 8) << "  " << pad(r.transfers_rejected, 8)
       << "  " << pad(r.transfer_nacks, 5) << "\n";
  }
  os << "\n";
}

void render_metrics(std::ostream& os, ReportInput const& in) {
  rule(os, "Metrics (" + std::to_string(in.metrics.size()) + " samples)");
  for (MetricRow const& m : in.metrics) {
    os << "    " << pad(m.name + m.labels, -40) << "  " << m.kind << " "
       << m.value << "\n";
  }
  os << "\n";
}

} // namespace

void load_causal(JsonValue const& doc, ReportInput& in,
                 KindInterner& interner) {
  in.causal_dropped += get_u64(doc, "dropped");
  parse_causal_events(doc.at("events"), in, interner);
  in.have_causal = true;
}

void load_timeline(JsonValue const& doc, ReportInput& in) {
  in.timeline_total += get_u64(doc, "total_recorded");
  parse_timeline_samples(doc.at("timeline"), in);
  in.have_timeline = true;
}

void load_metrics(JsonValue const& doc, ReportInput& in) {
  parse_metric_rows(doc.at("metrics"), in);
  in.have_metrics = true;
}

void load_lb_reports(JsonValue const& doc, ReportInput& in) {
  for (JsonValue const& r : doc.at("lb_reports").array()) {
    LbRow row;
    row.phase = get_u64(r, "phase");
    row.strategy = r.at("strategy").str();
    row.initial_imbalance = get_num(r, "initial_imbalance");
    row.final_imbalance = get_num(r, "final_imbalance");
    JsonValue const& transfers = r.at("transfers");
    row.transfers_accepted = get_u64(transfers, "accepted");
    row.transfers_rejected = get_u64(transfers, "rejected");
    row.transfer_nacks = get_u64(transfers, "nacks");
    in.lb_reports.push_back(std::move(row));
  }
  in.have_lb_reports = true;
}

void load_flight_record(JsonValue const& doc, ReportInput& in,
                        KindInterner& interner) {
  in.flight_reason = doc.at("reason").str();
  in.flight_step = get_u64(doc, "step");
  in.have_flight = true;
  in.timeline_total += get_u64(doc, "timeline_total_recorded");
  parse_timeline_samples(doc.at("timeline"), in);
  in.have_timeline = true;
  parse_causal_events(doc.at("causal_tail"), in, interner);
  in.have_causal = true;
  parse_metric_rows(doc.at("metrics"), in);
  in.have_metrics = true;
}

std::size_t render_report(std::ostream& os, ReportInput const& in,
                          ReportOptions const& opts) {
  os << "tlb_report postmortem\n=====================\n\n";
  if (in.have_flight) {
    os << "Flight record: reason=" << in.flight_reason << " step="
       << in.flight_step << "\n\n";
  }
  std::size_t chain_len = 0;
  if (in.have_causal) {
    auto const path = obs::compute_critical_path(in.causal_events);
    chain_len = path.chain.size();
    render_critical_path(os, in, opts, path);
    render_stragglers(os, in, opts);
  }
  if (in.have_timeline) {
    render_timeline(os, in, opts);
  }
  if (in.have_lb_reports) {
    render_lb_reports(os, in);
  }
  if (in.have_metrics) {
    render_metrics(os, in);
  }
  return chain_len;
}

} // namespace tlb::report
