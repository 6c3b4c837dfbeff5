/// \file scenario_test.cpp
/// The scenario library's contracts: determinism, the seeding discipline
/// (distinct streams per (scenario, rank)), each scenario's shape, the
/// fixed-population workload realization, and the PhaseTimeline-export
/// round trip into a trace-replay scenario.

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/phase_timeline.hpp"
#include "runtime/object_store.hpp"
#include "workload/scenario.hpp"

namespace tlb::workload {
namespace {

ScenarioSpec spec_for(std::string name, RankId ranks = 16,
                      std::size_t phases = 24) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.num_ranks = ranks;
  spec.phases = phases;
  spec.seed = 42;
  return spec;
}

std::vector<double> intensities(Scenario const& s, std::uint64_t phase) {
  std::vector<double> out;
  for (RankId r = 0; r < s.num_ranks(); ++r) {
    out.push_back(s.intensity(phase, r));
  }
  return out;
}

TEST(ScenarioFactory, BuildsEveryRegisteredScenario) {
  for (auto const name : scenario_names()) {
    auto const s = make_scenario(spec_for(std::string{name}));
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), name);
    EXPECT_EQ(s->num_ranks(), 16);
  }
  EXPECT_THROW((void)make_scenario(spec_for("tsunami")),
               std::invalid_argument);
}

TEST(ScenarioFactory, IntensitiesArePositiveAndDeterministic) {
  for (auto const name : scenario_names()) {
    auto const a = make_scenario(spec_for(std::string{name}));
    auto const b = make_scenario(spec_for(std::string{name}));
    for (std::uint64_t p = 0; p < 40; ++p) { // past the nominal horizon
      for (RankId r = 0; r < a->num_ranks(); ++r) {
        EXPECT_GT(a->intensity(p, r), 0.0) << name;
        EXPECT_DOUBLE_EQ(a->intensity(p, r), b->intensity(p, r)) << name;
      }
    }
  }
}

TEST(Seeding, StreamsAreDistinctPerScenarioAndRank) {
  // The satellite contract: no two (scenario, rank) pairs may share a
  // workload stream, and the workload tag must not collide with the
  // per-rank runtime streams.
  std::set<std::uint64_t> seeds;
  for (auto const name : scenario_names()) {
    auto const tag = scenario_stream_tag(name);
    for (RankId r = 0; r < 64; ++r) {
      EXPECT_TRUE(seeds.insert(rank_stream_seed(7, tag, r)).second)
          << "stream collision for " << name << " rank " << r;
    }
  }
  EXPECT_NE(scenario_stream_tag("hotspot"), scenario_stream_tag("bursty"));
  // Different root seeds move every stream.
  EXPECT_NE(rank_stream_seed(7, scenario_stream_tag("hotspot"), 0),
            rank_stream_seed(8, scenario_stream_tag("hotspot"), 0));
}

TEST(HotspotScenario, TheBumpDriftsAcrossRanks) {
  auto const s = make_scenario(spec_for("hotspot", 32));
  auto const argmax = [&](std::uint64_t phase) {
    auto const v = intensities(*s, phase);
    return std::distance(v.begin(), std::max_element(v.begin(), v.end()));
  };
  // Baseline plus a bump: max well above min somewhere.
  auto const v0 = intensities(*s, 0);
  EXPECT_GT(*std::max_element(v0.begin(), v0.end()), 2.0);
  EXPECT_GE(*std::min_element(v0.begin(), v0.end()), 1.0);
  // The hotspot moves: with drift 1.5 ranks/phase the argmax after 8
  // phases sits ~12 ranks away (mod 32).
  EXPECT_NE(argmax(0), argmax(8));
}

TEST(PeriodicScenario, SwingsExactlyOnItsPeriod) {
  auto spec = spec_for("periodic");
  spec.period = 6;
  auto const s = make_scenario(spec);
  for (RankId r = 0; r < s->num_ranks(); ++r) {
    for (std::uint64_t p = 0; p < 12; ++p) {
      EXPECT_DOUBLE_EQ(s->intensity(p, r), s->intensity(p + 6, r));
    }
  }
  // At the cycle start (sin = 0) the two halves agree — a balanced phase;
  // a quarter period in, they diverge — the imbalanced part of the swing.
  EXPECT_DOUBLE_EQ(s->intensity(0, 0), s->intensity(0, s->num_ranks() - 1));
  EXPECT_GT(s->intensity(1, 0), s->intensity(1, s->num_ranks() - 1));
}

TEST(BurstyScenario, HasCalmAndShockedPhases) {
  auto spec = spec_for("bursty", 16, 40);
  auto const s = make_scenario(spec);
  std::size_t calm = 0;
  std::size_t shocked = 0;
  for (std::uint64_t p = 0; p < spec.phases; ++p) {
    auto const v = intensities(*s, p);
    double const max = *std::max_element(v.begin(), v.end());
    if (max == 1.0) {
      ++calm;
    } else {
      EXPECT_GE(max, 1.0 + spec.amplitude - 1e-9);
      ++shocked;
    }
  }
  EXPECT_GT(calm, 0u) << "a bursty scenario needs calm stretches";
  EXPECT_GT(shocked, 0u) << "and shocks";
  // The schedule wraps past the horizon.
  EXPECT_DOUBLE_EQ(s->intensity(spec.phases + 3, 5), s->intensity(3, 5));
}

TEST(RampScenario, SteepensMonotonically) {
  auto const s = make_scenario(spec_for("ramp", 16, 20));
  // Phase 0 is flat; later phases grade up with rank; the top rank's
  // series is nondecreasing and saturates at the horizon.
  for (RankId r = 0; r < 16; ++r) {
    EXPECT_DOUBLE_EQ(s->intensity(0, r), 1.0);
  }
  EXPECT_DOUBLE_EQ(s->intensity(10, 0), 1.0);
  for (std::uint64_t p = 1; p < 25; ++p) {
    EXPECT_GE(s->intensity(p, 15), s->intensity(p - 1, 15));
  }
  EXPECT_DOUBLE_EQ(s->intensity(19, 15), s->intensity(40, 15));
}

TEST(ScenarioWorkload, RealizesTheFixedPopulation) {
  auto const s = make_scenario(spec_for("hotspot", 8));
  ScenarioWorkload const wl{*s, 4, 42, 2.0};
  EXPECT_EQ(wl.num_tasks(), 32u);
  for (std::size_t id = 0; id < wl.num_tasks(); ++id) {
    auto const task = static_cast<TaskId>(id);
    EXPECT_EQ(wl.home(task), static_cast<RankId>(id / 4));
    EXPECT_GT(wl.weight(task), 0.0);
    EXPECT_DOUBLE_EQ(wl.task_load(3, task),
                     wl.weight(task) * s->intensity(3, wl.home(task)));
  }
}

TEST(ScenarioWorkload, MeasureFollowsThePlacement) {
  auto const s = make_scenario(spec_for("hotspot", 4));
  ScenarioWorkload const wl{*s, 2, 42};
  rt::ObjectStore store{4};
  wl.populate(store, 64);
  EXPECT_EQ(store.total_tasks(), 8u);

  auto const before = wl.measure(0, store);
  ASSERT_EQ(before.tasks.size(), 4u);
  EXPECT_EQ(before.tasks[0].size(), 2u);

  // Move one of rank 0's tasks to rank 3: its load must move with it but
  // keep tracking its *home* rank's intensity.
  rt::RuntimeConfig rt_config;
  rt_config.num_ranks = 4;
  rt::Runtime runtime{rt_config};
  TaskId const moved = before.tasks[0][0].id;
  store.migrate(runtime, {{moved, 0, 3, before.tasks[0][0].load}});
  auto const after = wl.measure(1, store);
  EXPECT_EQ(after.tasks[0].size(), 1u);
  ASSERT_EQ(after.tasks[3].size(), 3u);
  bool found = false;
  for (auto const& t : after.tasks[3]) {
    if (t.id == moved) {
      found = true;
      EXPECT_DOUBLE_EQ(t.load, wl.task_load(1, moved));
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceScenario, RoundTripsATimelineExport) {
  // Record two phases of known 4-rank loads with full-fidelity snapshots
  // (top_k >= ranks), export, replay: intensities must be proportional to
  // the recorded loads, wrapping past the trace end.
  obs::PhaseTimeline timeline{8};
  std::vector<std::vector<double>> const recorded{{4.0, 1.0, 1.0, 2.0},
                                                  {1.0, 3.0, 2.0, 2.0}};
  for (std::size_t p = 0; p < recorded.size(); ++p) {
    obs::PhaseSample sample;
    sample.phase = p;
    obs::snapshot_loads(sample, recorded[p], 8);
    timeline.record(std::move(sample));
  }
  std::ostringstream json;
  timeline.write_json(json);

  auto const replay = make_trace_scenario(json.str());
  EXPECT_EQ(replay->num_ranks(), 4);
  EXPECT_EQ(replay->phases(), 2u);
  // Mean load = 2.0, so intensity = load / 2.
  for (std::size_t p = 0; p < recorded.size(); ++p) {
    for (RankId r = 0; r < 4; ++r) {
      EXPECT_NEAR(replay->intensity(p, r),
                  recorded[p][static_cast<std::size_t>(r)] / 2.0, 1e-9);
      EXPECT_NEAR(replay->intensity(p + 2, r), replay->intensity(p, r),
                  1e-12);
    }
  }
}

TEST(TraceScenario, SpreadsTheTruncatedRemainderEvenly) {
  // 6 ranks, top_k = 2: the four collapsed ranks each get rest/4.
  obs::PhaseTimeline timeline{4};
  std::vector<double> const loads{9.0, 1.0, 1.5, 6.0, 0.5, 1.0};
  obs::PhaseSample sample;
  obs::snapshot_loads(sample, loads, 2);
  timeline.record(std::move(sample));
  std::ostringstream json;
  timeline.write_json(json);

  auto const replay = make_trace_scenario(json.str());
  EXPECT_EQ(replay->num_ranks(), 6);
  double const mean = (9.0 + 6.0 + 4.0) / 6.0;
  EXPECT_NEAR(replay->intensity(0, 0), 9.0 / mean, 1e-9);
  EXPECT_NEAR(replay->intensity(0, 3), 6.0 / mean, 1e-9);
  // rest_load_sum = 4.0 over 4 ranks → 1.0 each.
  for (RankId r : {1, 2, 4, 5}) {
    EXPECT_NEAR(replay->intensity(0, r), 1.0 / mean, 1e-9);
  }
}

TEST(TraceScenario, RejectsMalformedDocuments) {
  EXPECT_THROW((void)make_trace_scenario("{\"timeline\": []}"),
               std::runtime_error);
  // A sample without a snapshot (legacy export) cannot be replayed.
  EXPECT_THROW(
      (void)make_trace_scenario(
          "{\"timeline\": [{\"phase\": 0, \"snapshot_ranks\": 0}]}"),
      std::runtime_error);
  // Hostile snapshots: rank counts and ranks must be integers in range
  // (checked before any cast), loads and the remainder finite and >= 0,
  // no rank listed twice, and the loads' total finite.
  for (std::string const snapshot : {
           R"("snapshot_ranks": 2, "rest_load_sum": 1,
              "top_loads": [{"rank": 0, "load": -3}])",
           R"("snapshot_ranks": 2, "rest_load_sum": 1,
              "top_loads": [{"rank": 0, "load": 1e400}])",
           R"("snapshot_ranks": 2, "rest_load_sum": -1,
              "top_loads": [{"rank": 0, "load": 3}])",
           R"("snapshot_ranks": 4.5, "rest_load_sum": 3,
              "top_loads": [{"rank": 0, "load": 3}])",
           R"("snapshot_ranks": 1e30, "rest_load_sum": 3,
              "top_loads": [{"rank": 0, "load": 3}])",
           // Integral and in RankId's range, but past kMaxRanks: rejected
           // before a per-rank row (17 GB at 2^31 - 1) is allocated.
           R"("snapshot_ranks": 2147483647, "rest_load_sum": 3,
              "top_loads": [{"rank": 0, "load": 3}])",
           R"("snapshot_ranks": 1048577, "rest_load_sum": 3,
              "top_loads": [{"rank": 0, "load": 3}])",
           R"("snapshot_ranks": 4, "rest_load_sum": 3,
              "top_loads": [{"rank": 1.5, "load": 3}])",
           R"("snapshot_ranks": 4, "rest_load_sum": 3,
              "top_loads": [{"rank": 1e30, "load": 3}])",
           R"("snapshot_ranks": 4, "rest_load_sum": 3,
              "top_loads": [{"rank": -1, "load": 3}])",
           R"("snapshot_ranks": 1, "rest_load_sum": 0,
              "top_loads": [{"rank": 0, "load": 1}, {"rank": 0, "load": 2}])",
           R"("snapshot_ranks": 1, "rest_load_sum": 0,
              "top_loads": [{"rank": 0, "load": 1}, {"rank": 1, "load": 2}])",
           R"("snapshot_ranks": 2, "rest_load_sum": 0,
              "top_loads": [{"rank": 0, "load": 1e308},
                            {"rank": 1, "load": 1e308}])",
       }) {
    EXPECT_THROW((void)make_trace_scenario(
                     R"({"timeline": [{"phase": 0, )" + snapshot + "}]}"),
                 std::runtime_error)
        << snapshot;
  }
}

} // namespace
} // namespace tlb::workload
