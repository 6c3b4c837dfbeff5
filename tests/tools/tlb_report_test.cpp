/// \file tlb_report_test.cpp
/// tools/tlb_report: loaders against synthetic documents, the renderer's
/// section logic, and a golden-file postmortem from a seeded 64-rank
/// multi-phase TemperedLB run (the acceptance path: non-trivial critical
/// path + per-phase imbalance table). Regenerate the golden with
///   TLB_UPDATE_GOLDEN=1 ./tests/test_tlb_report --gtest_filter='*Golden*'

#include "report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "lb/strategy/lb_manager.hpp"
#include "obs/causal.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace tlb::report {
namespace {

// ---------------------------------------------------------------------
// Loaders on synthetic documents
// ---------------------------------------------------------------------

TEST(Loaders, CausalDocumentRoundTrips) {
  auto const doc = obs::parse_json(R"({
    "step": 2, "dropped": 1,
    "events": [
      {"id": 7, "parent": 0, "origin": 3, "step": 2, "hop": 0,
       "from": -1, "to": 3, "kind": "gossip", "bytes": 24,
       "ts_us": 10, "dur_us": 4}
    ]})");
  ReportInput in;
  KindInterner interner;
  load_causal(doc, in, interner);
  ASSERT_TRUE(in.have_causal);
  EXPECT_EQ(in.causal_dropped, 1u);
  ASSERT_EQ(in.causal_events.size(), 1u);
  EXPECT_EQ(in.causal_events[0].stamp.id, 7u);
  EXPECT_EQ(in.causal_events[0].from, -1);
  EXPECT_EQ(std::string_view{in.causal_events[0].kind}, "gossip");
  EXPECT_EQ(in.causal_events[0].dur_us, 4);
}

TEST(Loaders, InternerDeduplicatesKindStorage) {
  KindInterner interner;
  auto const* a = interner.intern("gossip");
  auto const* b = interner.intern("gossip");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, interner.intern("transfer"));
}

TEST(Loaders, MalformedDocumentThrows) {
  ReportInput in;
  KindInterner interner;
  EXPECT_THROW(load_causal(obs::parse_json(R"({"events": []})"), in,
                           interner),
               std::runtime_error);
  EXPECT_THROW(load_timeline(obs::parse_json("{}"), in),
               std::runtime_error);
  // Metric rows carry a "value"; a histogram row has none.
  EXPECT_THROW(load_metrics(obs::parse_json(R"({"metrics": [
    {"name": "lat", "labels": {}, "kind": "histogram", "count": 2}]})"),
                            in),
               std::runtime_error);
}

TEST(Loaders, TimelineAndMetricsPopulateSections) {
  ReportInput in;
  load_timeline(obs::parse_json(R"({
    "total_recorded": 5,
    "timeline": [{
      "phase": 4, "strategy": "tempered",
      "load_min": 1.0, "load_max": 8.0, "load_avg": 2.0,
      "load_stddev": 0.5, "imbalance_before": 3.0,
      "imbalance_after": 0.4, "migrations": 12, "migration_bytes": 600,
      "lb_messages": 40, "lb_bytes": 900, "lb_wall_us": 77,
      "aborted_rounds": 0, "faults_dropped": 1, "faults_delayed": 0,
      "faults_duplicated": 0, "faults_retried": 2}]})"),
                in);
  ASSERT_EQ(in.timeline.size(), 1u);
  EXPECT_EQ(in.timeline[0].phase, 4u);
  EXPECT_EQ(in.timeline_total, 5u);

  load_metrics(obs::parse_json(R"({"metrics": [
    {"name": "net.messages", "labels": {"category": "gossip"},
     "kind": "counter", "value": 9},
    {"name": "net.max_mailbox_depth", "labels": {}, "kind": "gauge",
     "value": 2}]})"),
               in);
  ASSERT_EQ(in.metrics.size(), 2u);
  EXPECT_EQ(in.metrics[0].labels, "{category=\"gossip\"}");
  EXPECT_EQ(in.metrics[1].kind, "gauge");
  EXPECT_EQ(in.metrics[1].value, 2);
}

TEST(Loaders, RegistryExportLoadsBack) {
  // The registry's {"metrics": [...]} document is what load_metrics reads.
  obs::Registry registry;
  registry.set_counter("net.messages", 9, {{"category", "gossip"}});
  registry.set_gauge("net.max_mailbox_depth", 3);
  std::ostringstream os;
  registry.write_json(os);

  ReportInput in;
  load_metrics(obs::parse_json(os.str()), in);
  ASSERT_TRUE(in.have_metrics);
  ASSERT_EQ(in.metrics.size(), 2u);
  EXPECT_EQ(in.metrics[0].name, "net.max_mailbox_depth");
  EXPECT_EQ(in.metrics[0].kind, "gauge");
  EXPECT_EQ(in.metrics[0].labels, "");
  EXPECT_EQ(in.metrics[0].value, 3);
  EXPECT_EQ(in.metrics[1].name, "net.messages");
  EXPECT_EQ(in.metrics[1].kind, "counter");
  EXPECT_EQ(in.metrics[1].labels, "{category=\"gossip\"}");
  EXPECT_EQ(in.metrics[1].value, 9);
}

// ---------------------------------------------------------------------
// Renderer
// ---------------------------------------------------------------------

obs::CausalEvent ev(std::uint64_t id, std::uint64_t parent,
                    std::uint16_t hop, RankId to, char const* kind,
                    std::int64_t dur) {
  obs::CausalEvent e;
  e.stamp.id = id;
  e.stamp.parent = parent;
  e.stamp.hop = hop;
  e.stamp.origin = 0;
  e.from = 0;
  e.to = to;
  e.kind = kind;
  e.bytes = 16;
  e.dur_us = dur;
  return e;
}

TEST(Renderer, ReturnsChainLengthAndRendersSections) {
  ReportInput in;
  in.have_causal = true;
  in.causal_events = {ev(1, 0, 0, 0, "other", 1),
                      ev(2, 1, 1, 1, "gossip", 2),
                      ev(3, 2, 2, 2, "gossip", 3)};
  std::ostringstream os;
  ReportOptions opts;
  auto const chain = render_report(os, in, opts);
  EXPECT_EQ(chain, 3u);
  auto const text = os.str();
  EXPECT_NE(text.find("Critical path"), std::string::npos);
  EXPECT_NE(text.find("Top stragglers"), std::string::npos);
  EXPECT_NE(text.find("3 deliveries, 3 hops deep"), std::string::npos);
}

TEST(Renderer, StableModeOmitsWallClockColumns) {
  ReportInput in;
  in.have_causal = true;
  in.causal_events = {ev(1, 0, 0, 0, "other", 123456)};
  in.have_timeline = true;
  obs::PhaseSample s;
  s.phase = 0;
  s.strategy = "tempered";
  s.lb_wall_us = 987654;
  in.timeline.push_back(s);
  in.timeline_total = 1;

  std::ostringstream os;
  ReportOptions opts;
  opts.stable = true;
  (void)render_report(os, in, opts);
  auto const text = os.str();
  EXPECT_EQ(text.find("123456"), std::string::npos);
  EXPECT_EQ(text.find("987654"), std::string::npos);
  EXPECT_EQ(text.find("handler_us"), std::string::npos);
  EXPECT_EQ(text.find("lb_wall_us"), std::string::npos);
}

TEST(Renderer, FlightRecordHeaderRendered) {
  ReportInput in;
  in.have_flight = true;
  in.flight_reason = "fault_crash";
  in.flight_step = 3;
  std::ostringstream os;
  (void)render_report(os, in, ReportOptions{});
  EXPECT_NE(os.str().find("reason=fault_crash step=3"), std::string::npos);
}

// ---------------------------------------------------------------------
// Golden postmortem from a seeded 64-rank multi-phase run
// ---------------------------------------------------------------------

class Payload final : public rt::Migratable {
public:
  [[nodiscard]] std::size_t wire_bytes() const override { return 128; }
};

/// The gossip_demo --telemetry recipe, in-process: 2 phases over 64
/// ranks with the hot ranks rotated between phases.
std::string render_seeded_postmortem() {
  obs::set_enabled(true);
  obs::CausalLog::instance().clear();
  obs::PhaseTimeline::instance().clear();

  auto params = lb::LbParams::tempered();
  params.num_trials = 2;
  params.num_iterations = 3;
  params.rounds = 5;
  params.fanout = 4;
  params.seed = 99;

  rt::RuntimeConfig config;
  config.num_ranks = 64;
  config.seed = 2021;
  rt::Runtime runtime{config};
  lb::LbManager manager{runtime, "tempered", params};

  for (int phase = 0; phase < 2; ++phase) {
    lb::StrategyInput input;
    input.tasks.resize(64);
    rt::ObjectStore store{64};
    Rng rng{2021 + static_cast<std::uint64_t>(phase)};
    TaskId next = 0;
    for (std::size_t r = 0; r < 8; ++r) {
      auto const hot = (r + static_cast<std::size_t>(phase) * 32) % 64;
      for (int i = 0; i < 48; ++i) {
        input.tasks[hot].push_back({next, rng.uniform(0.5, 1.5)});
        store.create(static_cast<RankId>(hot), next,
                     std::make_unique<Payload>());
        ++next;
      }
    }
    (void)manager.invoke(input, store);
  }

  // Round-trip through the JSON artifacts exactly as the CLI would.
  std::ostringstream causal_js;
  obs::CausalLog::instance().write_json(causal_js);
  std::ostringstream timeline_js;
  obs::PhaseTimeline::instance().write_json(timeline_js);

  ReportInput in;
  KindInterner interner;
  load_causal(obs::parse_json(causal_js.str()), in, interner);
  load_timeline(obs::parse_json(timeline_js.str()), in);

  std::ostringstream os;
  ReportOptions opts;
  opts.stable = true;
  opts.top_k = 5;
  auto const chain = render_report(os, in, opts);
  EXPECT_GE(chain, 3u) << "critical path should be non-trivial";

  obs::CausalLog::instance().clear();
  obs::PhaseTimeline::instance().clear();
  obs::set_enabled(false);
  return os.str();
}

std::string golden_path() {
  return std::string{TLB_SOURCE_DIR} +
         "/tests/tools/golden/tlb_report_64.txt";
}

TEST(TlbReportGolden, Seeded64RankPostmortemMatchesGoldenFile) {
  auto const actual = render_seeded_postmortem();
  // The stable postmortem must include both acceptance sections.
  EXPECT_NE(actual.find("Critical path"), std::string::npos);
  EXPECT_NE(actual.find("Imbalance evolution (2 of 2 phases retained)"),
            std::string::npos);

  if (std::getenv("TLB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{golden_path()};
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << actual;
    GTEST_SKIP() << "golden file regenerated";
  }

  std::ifstream in{golden_path()};
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path()
      << " — regenerate with TLB_UPDATE_GOLDEN=1";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "postmortem drifted from the golden file; if intentional, "
         "regenerate with TLB_UPDATE_GOLDEN=1";
}

TEST(TlbReportGolden, PostmortemIsDeterministicAcrossRuns) {
  auto const a = render_seeded_postmortem();
  auto const b = render_seeded_postmortem();
  EXPECT_EQ(a, b);
}

} // namespace
} // namespace tlb::report
