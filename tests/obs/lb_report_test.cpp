#include "obs/lb_report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "lb/strategy/lb_manager.hpp"
#include "mini_json.hpp"
#include "obs/telemetry.hpp"
#include "support/rng.hpp"

namespace tlb::obs {
namespace {

TEST(LbReportBuilder, GossipRoundsAggregateMinMaxAvg) {
  LbReportBuilder builder;
  builder.on_gossip_message(1, 100, 4);
  builder.on_gossip_message(1, 50, 8);
  builder.on_gossip_message(2, 10, 9);
  auto const report = builder.finish(0);
  ASSERT_EQ(report.rounds.size(), 2u);
  EXPECT_EQ(report.rounds[0].round, 1);
  EXPECT_EQ(report.rounds[0].messages, 2u);
  EXPECT_EQ(report.rounds[0].bytes, 150u);
  EXPECT_EQ(report.rounds[0].knowledge_min, 4u);
  EXPECT_EQ(report.rounds[0].knowledge_max, 8u);
  EXPECT_DOUBLE_EQ(report.rounds[0].knowledge_avg, 6.0);
  EXPECT_EQ(report.rounds[1].round, 2);
  EXPECT_EQ(report.rounds[1].messages, 1u);
}

TEST(LbReportBuilder, OutOfRangeRoundsAreIgnored) {
  LbReportBuilder builder;
  builder.on_gossip_message(-1, 10, 1);
  builder.on_gossip_message(static_cast<int>(LbReportBuilder::max_rounds),
                            10, 1);
  auto const report = builder.finish(0);
  EXPECT_TRUE(report.rounds.empty());
}

TEST(LbReportBuilder, IterationDeltasNotCumulative) {
  LbReportBuilder builder;
  builder.set_threshold(1.0);
  builder.set_initial_imbalance(4.0);
  builder.on_transfer_pass(10, 2, 1, 3);
  builder.on_trial_iteration(0, 1, 3.0);
  builder.on_transfer_pass(5, 1, 0, 2);
  builder.on_nack();
  builder.on_trial_iteration(0, 2, 2.5);
  auto const report = builder.finish(0);
  ASSERT_EQ(report.iterations.size(), 2u);
  EXPECT_EQ(report.iterations[0].transfers_accepted, 10u);
  EXPECT_EQ(report.iterations[0].transfers_rejected, 2u);
  EXPECT_EQ(report.iterations[0].transfers_no_target, 1u);
  EXPECT_EQ(report.iterations[0].cmf_rebuilds, 3u);
  EXPECT_EQ(report.iterations[0].transfer_nacks, 0u);
  EXPECT_EQ(report.iterations[1].transfers_accepted, 5u);
  EXPECT_EQ(report.iterations[1].transfer_nacks, 1u);
  // Totals are cumulative.
  EXPECT_EQ(report.transfers_accepted, 15u);
  EXPECT_EQ(report.transfer_nacks, 1u);
}

TEST(LbReportBuilder, ObjectiveBestIsMonotonePerTrial) {
  LbReportBuilder builder;
  builder.set_threshold(1.0);
  builder.set_initial_imbalance(5.0); // initial objective = 5 - 1 + 1 = 5
  builder.on_trial_iteration(0, 1, 3.0); // objective 3
  builder.on_trial_iteration(0, 2, 4.0); // worse: best stays 3
  builder.on_trial_iteration(0, 3, 2.0); // better: best 2
  builder.on_trial_iteration(1, 1, 6.0); // new trial: best reseeds to 5
  builder.on_trial_iteration(1, 2, 1.0);
  auto const report = builder.finish(0);
  ASSERT_EQ(report.iterations.size(), 5u);
  EXPECT_DOUBLE_EQ(report.iterations[0].objective, 3.0);
  EXPECT_DOUBLE_EQ(report.iterations[0].objective_best, 3.0);
  EXPECT_DOUBLE_EQ(report.iterations[1].objective, 4.0);
  EXPECT_DOUBLE_EQ(report.iterations[1].objective_best, 3.0);
  EXPECT_DOUBLE_EQ(report.iterations[2].objective_best, 2.0);
  // Trial 1 reseeds from the initial placement, not trial 0's best.
  EXPECT_DOUBLE_EQ(report.iterations[3].objective_best, 5.0);
  EXPECT_DOUBLE_EQ(report.iterations[4].objective_best, 1.0);
}

TEST(LbReportJson, EmptyAndPopulatedDocumentsParse) {
  std::ostringstream empty;
  write_lb_reports_json(empty, {});
  EXPECT_EQ(test::parse_json(empty.str()).at("lb_reports").array().size(),
            0u);

  LbReportBuilder builder;
  builder.set_strategy("tempered");
  builder.set_threshold(1.0);
  builder.set_initial_imbalance(2.0);
  builder.on_gossip_message(1, 32, 3);
  builder.on_trial_iteration(0, 1, 1.5);
  builder.set_final(1.5, 4, 1024);
  std::ostringstream os;
  write_lb_reports_json(os, {builder.finish(7)});
  auto const doc = test::parse_json(os.str());
  auto const& r = doc.at("lb_reports").array().at(0);
  EXPECT_EQ(r.at("phase").num(), 7.0);
  EXPECT_EQ(r.at("strategy").str(), "tempered");
  EXPECT_EQ(r.at("migrations").at("count").num(), 4.0);
  EXPECT_EQ(r.at("migrations").at("bytes").num(), 1024.0);
  EXPECT_EQ(r.at("gossip_rounds").array().size(), 1u);
  EXPECT_EQ(r.at("iterations").array().size(), 1u);
}

// ---------------------------------------------------------------------
// Golden-file test: a seeded 64-rank runtime-backed TemperedLB run must
// produce byte-identical introspection JSON. Regenerate with
//   TLB_UPDATE_GOLDEN=1 ./tests/test_obs --gtest_filter='*Golden*'
// after intentional changes to the report schema or the LB protocol.
// ---------------------------------------------------------------------

class Payload final : public rt::Migratable {
public:
  [[nodiscard]] std::size_t wire_bytes() const override { return 128; }
};

std::string run_seeded_64rank_report() {
  set_enabled(true);
  lb::StrategyInput input;
  input.tasks.resize(64);
  rt::ObjectStore store{64};
  Rng rng{2021};
  // Clustered overload: 8 hot ranks carry everything.
  TaskId next = 0;
  for (std::size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 48; ++i) {
      double const load = rng.uniform(0.5, 1.5);
      input.tasks[r].push_back({next, load});
      store.create(static_cast<RankId>(r), next,
                   std::make_unique<Payload>());
      ++next;
    }
  }

  auto params = lb::LbParams::tempered();
  params.num_trials = 2;
  params.num_iterations = 3;
  params.rounds = 5;
  params.fanout = 4;
  params.seed = 99;

  rt::RuntimeConfig config;
  config.num_ranks = 64;
  rt::Runtime runtime{config};
  lb::LbManager manager{runtime, "tempered", params};
  (void)manager.invoke(input, store);

  std::ostringstream os;
  manager.write_introspection_json(os);
  set_enabled(false);
  return os.str();
}

std::string golden_path() {
  return std::string{TLB_SOURCE_DIR} +
         "/tests/obs/golden/lb_report_64.json";
}

TEST(LbReportGolden, Seeded64RankRunMatchesGoldenFile) {
  auto const actual = run_seeded_64rank_report();

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
      << "LB introspection drifted from the golden file; if intentional, "
         "regenerate with TLB_UPDATE_GOLDEN=1";
}

TEST(LbReportGolden, RuntimeRunSatisfiesLemma1Monotonicity) {
  auto const doc = test::parse_json(run_seeded_64rank_report());
  auto const& reports = doc.at("lb_reports").array();
  ASSERT_EQ(reports.size(), 1u);
  auto const& iterations = reports[0].at("iterations").array();
  ASSERT_FALSE(iterations.empty());
  double best = std::numeric_limits<double>::infinity();
  double trial = -1.0;
  for (auto const& it : iterations) {
    if (it.at("trial").num() != trial) {
      trial = it.at("trial").num();
      best = std::numeric_limits<double>::infinity();
    }
    // objective_best is the running minimum within each trial (Lemma 1's
    // keep-best guarantee) — never increasing.
    EXPECT_LE(it.at("objective_best").num(), best + 1e-12);
    best = it.at("objective_best").num();
    // And it is a lower envelope of the raw objective trajectory.
    EXPECT_LE(it.at("objective_best").num(), it.at("objective").num() + 1e-12);
  }
  // The invocation actually moved work.
  EXPECT_GT(reports[0].at("transfers").at("accepted").num(), 0.0);
  EXPECT_GT(reports[0].at("migrations").at("count").num(), 0.0);
}

} // namespace
} // namespace tlb::obs
