#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "mini_json.hpp"
#include "obs/causal.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "runtime/runtime.hpp"
#include "support/check.hpp"

namespace tlb::obs {
namespace {

/// Telemetry + a scratch dump path + a re-armed recorder for one test;
/// everything restored on exit.
class ScopedRecorder {
public:
  explicit ScopedRecorder(std::string name)
      : path_{::testing::TempDir() + std::move(name)} {
    set_enabled(true);
    PhaseTimeline::instance().clear();
    CausalLog::instance().clear();
    registry().clear();
    set_flight_record_path(path_);
    rearm_flight_recorder();
    std::remove(path_.c_str());
  }
  ~ScopedRecorder() {
    std::remove(path_.c_str());
    set_flight_record_path("");
    rearm_flight_recorder();
    PhaseTimeline::instance().clear();
    CausalLog::instance().clear();
    registry().clear();
    set_enabled(false);
  }
  [[nodiscard]] std::string const& path() const { return path_; }

  [[nodiscard]] std::string slurp() const {
    std::ifstream in{path_};
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

private:
  std::string path_;
};

PhaseSample mk_sample(std::uint64_t phase) {
  PhaseSample s;
  s.phase = phase;
  s.strategy = "tempered";
  s.imbalance_before = 3.0;
  s.imbalance_after = 0.25;
  return s;
}

TEST(FlightRecorder, DumpWritesTimelineCausalTailAndMetrics) {
  ScopedRecorder scoped{"fr_dump.json"};
  PhaseTimeline::instance().record(mk_sample(0));
  PhaseTimeline::instance().record(mk_sample(1));
  CausalEvent ev;
  ev.stamp.id = 42;
  ev.to = 3;
  ev.kind = "gossip";
  CausalLog::instance().record(ev);
  CausalLog::instance().set_step(1);

  auto const written = dump_flight_record("unit_test");
  EXPECT_EQ(written, scoped.path());
  EXPECT_TRUE(flight_record_dumped());

  auto const doc = test::parse_json(scoped.slurp());
  EXPECT_EQ(doc.at("reason").str(), "unit_test");
  EXPECT_EQ(doc.at("step").num(), 1.0);
  EXPECT_EQ(doc.at("timeline_total_recorded").num(), 2.0);
  ASSERT_EQ(doc.at("timeline").array().size(), 2u);
  EXPECT_EQ(doc.at("timeline").array()[1].at("phase").num(), 1.0);
  ASSERT_EQ(doc.at("causal_tail").array().size(), 1u);
  EXPECT_EQ(doc.at("causal_tail").array()[0].at("id").num(), 42.0);
  EXPECT_TRUE(doc.at("metrics").is_array());
}

TEST(FlightRecorder, SecondDumpIsSuppressedUntilRearmed) {
  ScopedRecorder scoped{"fr_latch.json"};
  EXPECT_EQ(dump_flight_record("first"), scoped.path());
  EXPECT_EQ(dump_flight_record("second"), "");
  rearm_flight_recorder();
  EXPECT_EQ(dump_flight_record("third"), scoped.path());
  auto const doc = test::parse_json(scoped.slurp());
  EXPECT_EQ(doc.at("reason").str(), "third");
}

TEST(FlightRecorder, DisabledTelemetrySuppressesDump) {
  ScopedRecorder scoped{"fr_disabled.json"};
  set_enabled(false);
  EXPECT_EQ(dump_flight_record("nope"), "");
  EXPECT_FALSE(flight_record_dumped());
  std::ifstream in{scoped.path()};
  EXPECT_FALSE(in.good());
}

// ---------------------------------------------------------------------
// Trigger: quiescence-budget exhaustion. An endless relay blows the poll
// budget; the runtime dumps before flushing the evidence away.
// ---------------------------------------------------------------------

void relay(rt::RankContext& ctx) {
  auto const next = static_cast<RankId>((ctx.rank() + 1) % ctx.num_ranks());
  ctx.send(next, 8, [](rt::RankContext& c) { relay(c); },
           rt::MessageKind::other);
}

TEST(FlightRecorder, QuiesceBudgetExhaustionDumps) {
  ScopedRecorder scoped{"fr_budget.json"};
  PhaseTimeline::instance().record(mk_sample(9));

  rt::RuntimeConfig config;
  config.num_ranks = 4;
  rt::Runtime rt{config};
  rt.post(0, [](rt::RankContext& ctx) { relay(ctx); });
  EXPECT_FALSE(rt.run_until_quiescent(50));

  EXPECT_TRUE(flight_record_dumped());
  auto const doc = test::parse_json(scoped.slurp());
  EXPECT_EQ(doc.at("reason").str(), "quiesce_budget_exhausted");
  ASSERT_EQ(doc.at("timeline").array().size(), 1u);
  EXPECT_EQ(doc.at("timeline").array()[0].at("phase").num(), 9.0);
  // The causal tail holds the relay's final deliveries.
  EXPECT_FALSE(doc.at("causal_tail").array().empty());
  // The runtime publishes its folded counters before the dump.
  auto const net_messages = [&doc]() -> double {
    for (auto const& m : doc.at("metrics").array()) {
      if (m.at("name").str() == "net.messages") {
        return m.at("value").num();
      }
    }
    return -1.0;
  }();
  EXPECT_GT(rt.stats().messages, 0u);
  EXPECT_EQ(net_messages, static_cast<double>(rt.stats().messages));
}

TEST(FlightRecorder, BudgetExhaustionWithTelemetryOffPublishesNothing) {
  // An untraced run neither dumps nor touches the process-wide registry.
  ScopedRecorder scoped{"fr_budget_off.json"};
  set_enabled(false);

  rt::RuntimeConfig config;
  config.num_ranks = 4;
  rt::Runtime rt{config};
  rt.post(0, [](rt::RankContext& ctx) { relay(ctx); });
  EXPECT_FALSE(rt.run_until_quiescent(50));

  EXPECT_GT(rt.stats().messages, 0u);
  EXPECT_FALSE(flight_record_dumped());
  EXPECT_TRUE(registry().snapshot().empty());
}

// ---------------------------------------------------------------------
// Trigger: an abort-mode invariant failure. The audit failure hook runs
// in the dying process (a gtest death test child); the parent parses the
// postmortem the child left behind.
// ---------------------------------------------------------------------

TEST(FlightRecorderDeathTest, InvariantFailureDumpsBeforeAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScopedRecorder scoped{"fr_invariant.json"};

  EXPECT_DEATH(
      {
        set_enabled(true); // installs the audit failure hook
        set_flight_record_path(scoped.path());
        rearm_flight_recorder();
        PhaseTimeline::instance().record(mk_sample(5));
        audit::set_mode(audit::Mode::abort_process);
        audit::report("x > 0", "flight recorder death test",
                      "flight_recorder_test.cpp", 1);
      },
      "flight recorder death test");

  auto const doc = test::parse_json(scoped.slurp());
  EXPECT_EQ(doc.at("reason").str(), "flight recorder death test");
  ASSERT_EQ(doc.at("timeline").array().size(), 1u);
  EXPECT_EQ(doc.at("timeline").array()[0].at("phase").num(), 5.0);
}

} // namespace
} // namespace tlb::obs
