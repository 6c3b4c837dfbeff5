#include "obs/phase_timeline.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "lb/strategy/lb_manager.hpp"
#include "mini_json.hpp"
#include "obs/telemetry.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace tlb::obs {
namespace {

PhaseSample sample(std::uint64_t phase) {
  PhaseSample s;
  s.phase = phase;
  s.strategy = "tempered";
  s.imbalance_before = 2.0;
  s.imbalance_after = 0.5;
  s.migrations = phase * 10;
  return s;
}

// ---------------------------------------------------------------------
// Ring semantics: a flight recorder keeps the NEWEST history, so overflow
// overwrites the oldest sample (the opposite of the Tracer's drop-newest).
// ---------------------------------------------------------------------

TEST(PhaseTimeline, RetainsEverythingUnderCapacity) {
  PhaseTimeline timeline{4};
  timeline.record(sample(0));
  timeline.record(sample(1));
  auto const got = timeline.samples();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].phase, 0u);
  EXPECT_EQ(got[1].phase, 1u);
  EXPECT_EQ(timeline.total_recorded(), 2u);
}

TEST(PhaseTimeline, OverflowOverwritesOldestKeepsOrder) {
  PhaseTimeline timeline{3};
  for (std::uint64_t p = 0; p < 7; ++p) {
    timeline.record(sample(p));
  }
  auto const got = timeline.samples();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].phase, 4u);
  EXPECT_EQ(got[1].phase, 5u);
  EXPECT_EQ(got[2].phase, 6u);
  EXPECT_EQ(timeline.total_recorded(), 7u);
}

TEST(PhaseTimeline, ClearResetsSamplesAndTotal) {
  PhaseTimeline timeline{3};
  timeline.record(sample(0));
  timeline.clear();
  EXPECT_TRUE(timeline.samples().empty());
  EXPECT_EQ(timeline.total_recorded(), 0u);
}

// ---------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------

TEST(PhaseTimeline, JsonExportParsesBackWithAllFields) {
  PhaseTimeline timeline{8};
  auto s = sample(2);
  s.load_min = 1.0;
  s.load_max = 9.0;
  s.load_avg = 4.5;
  s.load_stddev = 2.25;
  s.migration_bytes = 4096;
  s.lb_messages = 120;
  s.lb_bytes = 960;
  s.lb_wall_us = 777;
  s.aborted_rounds = 1;
  s.faults_dropped = 3;
  s.faults_retried = 2;
  timeline.record(s);

  std::ostringstream os;
  timeline.write_json(os);
  auto const doc = test::parse_json(os.str());
  EXPECT_EQ(doc.at("total_recorded").num(), 1.0);
  auto const& arr = doc.at("timeline").array();
  ASSERT_EQ(arr.size(), 1u);
  EXPECT_EQ(arr[0].at("phase").num(), 2.0);
  EXPECT_EQ(arr[0].at("strategy").str(), "tempered");
  EXPECT_EQ(arr[0].at("load_max").num(), 9.0);
  EXPECT_EQ(arr[0].at("imbalance_before").num(), 2.0);
  EXPECT_EQ(arr[0].at("imbalance_after").num(), 0.5);
  EXPECT_EQ(arr[0].at("migrations").num(), 20.0);
  EXPECT_EQ(arr[0].at("migration_bytes").num(), 4096.0);
  EXPECT_EQ(arr[0].at("lb_wall_us").num(), 777.0);
  EXPECT_EQ(arr[0].at("aborted_rounds").num(), 1.0);
  EXPECT_EQ(arr[0].at("faults_dropped").num(), 3.0);
  EXPECT_EQ(arr[0].at("faults_retried").num(), 2.0);
}

// ---------------------------------------------------------------------
// Truncated per-rank snapshots and the decision fields
// ---------------------------------------------------------------------

TEST(SnapshotLoads, KeepsTopKAndSumsTheRest) {
  PhaseSample s;
  snapshot_loads(s, std::vector<double>{1.0, 5.0, 2.0, 4.0, 3.0}, 2);
  EXPECT_EQ(s.snapshot_ranks, 5u);
  ASSERT_EQ(s.top_loads.size(), 2u);
  EXPECT_EQ(s.top_loads[0].rank, 1);
  EXPECT_DOUBLE_EQ(s.top_loads[0].load, 5.0);
  EXPECT_EQ(s.top_loads[1].rank, 3);
  EXPECT_DOUBLE_EQ(s.top_loads[1].load, 4.0);
  EXPECT_DOUBLE_EQ(s.rest_load_sum, 1.0 + 2.0 + 3.0);
}

TEST(SnapshotLoads, BreaksLoadTiesByLowestRank) {
  PhaseSample s;
  snapshot_loads(s, std::vector<double>{2.0, 3.0, 3.0, 3.0}, 2);
  ASSERT_EQ(s.top_loads.size(), 2u);
  EXPECT_EQ(s.top_loads[0].rank, 1);
  EXPECT_EQ(s.top_loads[1].rank, 2);
}

TEST(SnapshotLoads, KLargerThanRanksKeepsEverything) {
  PhaseSample s;
  snapshot_loads(s, std::vector<double>{1.0, 2.0}, 8);
  EXPECT_EQ(s.snapshot_ranks, 2u);
  ASSERT_EQ(s.top_loads.size(), 2u);
  EXPECT_DOUBLE_EQ(s.rest_load_sum, 0.0);
}

TEST(SnapshotLoads, KZeroRecordsOnlyTheTotal) {
  PhaseSample s;
  snapshot_loads(s, std::vector<double>{1.0, 2.0, 3.0}, 0);
  EXPECT_EQ(s.snapshot_ranks, 3u);
  EXPECT_TRUE(s.top_loads.empty());
  EXPECT_DOUBLE_EQ(s.rest_load_sum, 6.0);
}

TEST(PhaseTimeline, SnapshotTopKIsConfigurable) {
  PhaseTimeline timeline{2};
  EXPECT_EQ(timeline.snapshot_top_k(), 8u);
  timeline.set_snapshot_top_k(3);
  EXPECT_EQ(timeline.snapshot_top_k(), 3u);
  timeline.clear(); // clear() resets samples, not the configured k
  EXPECT_EQ(timeline.snapshot_top_k(), 3u);
}

TEST(PhaseTimeline, JsonExportCarriesDecisionAndSnapshotFields) {
  PhaseTimeline timeline{4};
  auto s = sample(5);
  s.lb_invoked = false;
  s.policy = "costbenefit";
  s.decision_reason = "gain below cost";
  s.forecast_imbalance = 0.75;
  s.forecast_error = 0.125;
  s.predicted_gain = 0.5;
  s.predicted_cost = 2.0;
  snapshot_loads(s, std::vector<double>{4.0, 1.0, 2.0}, 2);
  timeline.record(s);

  std::ostringstream os;
  timeline.write_json(os);
  auto const doc = test::parse_json(os.str());
  auto const& entry = doc.at("timeline").array().at(0);
  EXPECT_FALSE(entry.at("lb_invoked").boolean());
  EXPECT_EQ(entry.at("policy").str(), "costbenefit");
  EXPECT_EQ(entry.at("reason").str(), "gain below cost");
  EXPECT_EQ(entry.at("forecast_imbalance").num(), 0.75);
  EXPECT_EQ(entry.at("forecast_error").num(), 0.125);
  EXPECT_EQ(entry.at("predicted_gain").num(), 0.5);
  EXPECT_EQ(entry.at("predicted_cost").num(), 2.0);
  EXPECT_EQ(entry.at("snapshot_ranks").num(), 3.0);
  EXPECT_EQ(entry.at("rest_load_sum").num(), 1.0);
  auto const& top = entry.at("top_loads").array();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].at("rank").num(), 0.0);
  EXPECT_EQ(top[0].at("load").num(), 4.0);
  EXPECT_EQ(top[1].at("rank").num(), 2.0);
  EXPECT_EQ(top[1].at("load").num(), 2.0);
}

// ---------------------------------------------------------------------
// LbManager feeds the process-wide timeline when telemetry is enabled
// ---------------------------------------------------------------------

class Payload final : public rt::Migratable {
public:
  [[nodiscard]] std::size_t wire_bytes() const override { return 64; }
};

TEST(PhaseTimeline, LbManagerRecordsOneSamplePerInvocation) {
  set_enabled(true);
  PhaseTimeline::instance().clear();

  lb::StrategyInput input;
  input.tasks.resize(16);
  rt::ObjectStore store{16};
  Rng rng{11};
  TaskId next = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    for (int i = 0; i < 12; ++i) {
      input.tasks[r].push_back({next, rng.uniform(0.5, 1.5)});
      store.create(static_cast<RankId>(r), next,
                   std::make_unique<Payload>());
      ++next;
    }
  }

  rt::RuntimeConfig config;
  config.num_ranks = 16;
  rt::Runtime runtime{config};
  auto params = lb::LbParams::tempered();
  params.num_trials = 1;
  params.num_iterations = 2;
  params.rounds = 3;
  lb::LbManager manager{runtime, "tempered", params};
  auto const report = manager.invoke(input, store);

  auto const got = PhaseTimeline::instance().samples();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].phase, 0u);
  EXPECT_EQ(got[0].strategy, "tempered");
  EXPECT_DOUBLE_EQ(got[0].imbalance_before, report.imbalance_before);
  EXPECT_DOUBLE_EQ(got[0].imbalance_after, report.imbalance_after);
  EXPECT_EQ(got[0].migrations, report.cost.migration_count);
  EXPECT_EQ(got[0].migration_bytes, report.migration_payload_bytes);
  EXPECT_GT(got[0].load_max, 0.0);

  PhaseTimeline::instance().clear();
  set_enabled(false);
}

TEST(PhaseTimeline, LbManagerRecordsNothingWhenDisabled) {
  set_enabled(false);
  PhaseTimeline::instance().clear();

  lb::StrategyInput input;
  input.tasks.resize(4);
  input.tasks[0].push_back({0, 2.0});
  rt::ObjectStore store{4};
  store.create(0, 0, std::make_unique<Payload>());

  rt::RuntimeConfig config;
  config.num_ranks = 4;
  rt::Runtime runtime{config};
  lb::LbManager manager{runtime, "greedy", lb::LbParams{}};
  (void)manager.invoke(input, store);

  EXPECT_TRUE(PhaseTimeline::instance().samples().empty());
}

} // namespace
} // namespace tlb::obs
