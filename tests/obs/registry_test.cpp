#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mini_json.hpp"
#include "obs/json.hpp"

namespace tlb::obs {
namespace {

TEST(Registry, SettingAnIdentityAgainReplacesItsValue) {
  Registry registry;
  registry.set_counter("x.count", 3, {{"rank", "0"}});
  registry.set_counter("x.count", 9, {{"rank", "0"}});
  registry.set_counter("x.count", 4, {{"rank", "1"}});
  auto const samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].labels[0].value, "0");
  EXPECT_EQ(samples[0].counter_value, 9u);
  EXPECT_EQ(samples[1].labels[0].value, "1");
  EXPECT_EQ(samples[1].counter_value, 4u);
}

TEST(Registry, LabelOrderIsCanonicalized) {
  Registry registry;
  registry.set_counter("y", 1, {{"b", "2"}, {"a", "1"}});
  registry.set_counter("y", 2, {{"a", "1"}, {"b", "2"}});
  auto const samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].labels[0].key, "a");
  EXPECT_EQ(samples[0].counter_value, 2u);
}

TEST(Registry, ConcurrentPublishesKeepOneSamplePerIdentity) {
  // A flight-record dump may read the store from whichever thread tripped
  // it while another publishes: every identity stays one sample, holding
  // one of the values published to it.
  Registry registry;
  constexpr int num_threads = 8;
  constexpr int per_thread = 200;
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < per_thread; ++i) {
        registry.set_counter("race.count", static_cast<std::uint64_t>(t),
                             {{"category", "gossip"}});
        registry.set_gauge("race.depth", i);
        (void)registry.snapshot();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  auto const samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_LT(samples[0].counter_value,
            static_cast<std::uint64_t>(num_threads));
  EXPECT_EQ(samples[1].gauge_value, per_thread - 1);
}

TEST(Registry, JsonExportParsesBack) {
  Registry registry;
  registry.set_counter("net.messages", 12, {{"category", "gossip"}});
  registry.set_gauge("net.depth", -3);

  std::ostringstream os;
  registry.write_json(os);
  auto const doc = test::parse_json(os.str());
  auto const& metrics = doc.at("metrics").array();
  ASSERT_EQ(metrics.size(), 2u);

  // Exports are sorted by (name, labels), not publication order.
  EXPECT_EQ(metrics[0].at("name").str(), "net.depth");
  EXPECT_EQ(metrics[0].at("kind").str(), "gauge");
  EXPECT_EQ(metrics[0].at("value").num(), -3.0);

  EXPECT_EQ(metrics[1].at("name").str(), "net.messages");
  EXPECT_EQ(metrics[1].at("kind").str(), "counter");
  EXPECT_EQ(metrics[1].at("labels").at("category").str(), "gossip");
  EXPECT_EQ(metrics[1].at("value").num(), 12.0);
}

TEST(Registry, ExportsAreByteStableAcrossPublicationOrder) {
  // The same families published in different orders must serialize
  // identically — what makes metrics snapshots diffable across runs.
  Registry forward;
  forward.set_counter("net.messages", 7, {{"category", "gossip"}});
  forward.set_counter("net.messages", 2, {{"category", "transfer"}});
  forward.set_gauge("net.depth", 5);

  Registry reverse;
  reverse.set_gauge("net.depth", 5);
  reverse.set_counter("net.messages", 2, {{"category", "transfer"}});
  reverse.set_counter("net.messages", 7, {{"category", "gossip"}});

  std::ostringstream json_a;
  std::ostringstream json_b;
  forward.write_json(json_a);
  reverse.write_json(json_b);
  EXPECT_EQ(json_a.str(), json_b.str());
}

TEST(Registry, ClearDropsEverything) {
  Registry registry;
  registry.set_counter("a", 1);
  registry.set_gauge("b", 1);
  EXPECT_EQ(registry.snapshot().size(), 2u);
  registry.clear();
  EXPECT_TRUE(registry.snapshot().empty());
}

TEST(Registry, SnapshotKeepsFirstPublicationOrder) {
  Registry registry;
  registry.set_counter("b", 1);
  registry.set_gauge("a", 2);
  registry.set_counter("b", 3); // republishing does not move an identity
  auto const samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "b");
  EXPECT_EQ(samples[0].counter_value, 3u);
  EXPECT_EQ(samples[1].name, "a");
  EXPECT_EQ(samples[1].gauge_value, 2);
}

TEST(Registry, EachLabelSetIsItsOwnSeries) {
  // No labels, a subset and a superset of labels: three identities.
  Registry registry;
  registry.set_counter("net.messages", 1);
  registry.set_counter("net.messages", 2, {{"category", "gossip"}});
  registry.set_counter("net.messages", 3,
                       {{"rank", "0"}, {"category", "gossip"}});
  auto const samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_TRUE(samples[0].labels.empty());
  EXPECT_EQ(samples[0].counter_value, 1u);
  EXPECT_EQ(samples[1].labels.size(), 1u);
  EXPECT_EQ(samples[1].counter_value, 2u);
  EXPECT_EQ(samples[2].labels.size(), 2u);
  EXPECT_EQ(samples[2].counter_value, 3u);
}

TEST(Registry, EmptyRegistryExportsAnEmptyMetricsArray) {
  // What a postmortem of a run that published nothing carries.
  Registry registry;
  std::ostringstream os;
  registry.write_json(os);
  auto const doc = test::parse_json(os.str());
  EXPECT_TRUE(doc.at("metrics").array().empty());
}

TEST(Registry, ExtremeValuesExportDigitForDigit) {
  Registry registry;
  registry.set_counter("c", std::numeric_limits<std::uint64_t>::max());
  registry.set_gauge("g", std::numeric_limits<std::int64_t>::min());
  std::ostringstream os;
  registry.write_json(os);
  auto const text = os.str();
  EXPECT_NE(text.find("18446744073709551615"), std::string::npos) << text;
  EXPECT_NE(text.find("-9223372036854775808"), std::string::npos) << text;
}

MetricSample sample(std::string name, Labels labels) {
  MetricSample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  return s;
}

TEST(Registry, SortSamplesOrdersByNameThenLabels) {
  std::vector<MetricSample> samples = {
      sample("b", {}),
      sample("a", {{"k", "2"}}),
      sample("a", {{"j", "9"}}),
      sample("a", {{"k", "1"}}),
      sample("a", {}),
  };
  sort_samples(samples);
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_EQ(samples[0].name, "a");
  EXPECT_TRUE(samples[0].labels.empty());
  EXPECT_EQ(samples[1].labels, (Labels{{"j", "9"}}));
  EXPECT_EQ(samples[2].labels, (Labels{{"k", "1"}}));
  EXPECT_EQ(samples[3].labels, (Labels{{"k", "2"}}));
  EXPECT_EQ(samples[4].name, "b");
}

TEST(Registry, WriteMetricSamplesJsonKeepsTheGivenOrder) {
  // The flight recorder sorts before it calls this; the writer does not.
  std::vector<MetricSample> samples = {sample("z", {}),
                                       sample("a", {{"rank", "1"}})};
  samples[0].counter_value = 5;
  samples[1].kind = MetricKind::gauge;
  samples[1].gauge_value = -1;
  std::ostringstream os;
  {
    JsonWriter w{os};
    w.begin_array();
    write_metric_samples_json(w, samples);
    w.end_array();
  }
  auto const doc = test::parse_json(os.str());
  auto const& rows = doc.array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("name").str(), "z");
  EXPECT_EQ(rows[0].at("kind").str(), "counter");
  EXPECT_EQ(rows[0].at("value").num(), 5.0);
  EXPECT_EQ(rows[1].at("name").str(), "a");
  EXPECT_EQ(rows[1].at("kind").str(), "gauge");
  EXPECT_EQ(rows[1].at("labels").at("rank").str(), "1");
  EXPECT_EQ(rows[1].at("value").num(), -1.0);
}

TEST(Registry, ClearForgetsEachIdentitysKind) {
  Registry registry;
  registry.set_counter("net.depth", 1);
  registry.clear();
  registry.set_gauge("net.depth", -4);
  auto const samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].kind, MetricKind::gauge);
  EXPECT_EQ(samples[0].gauge_value, -4);
}

TEST(RegistryDeath, RepublishingAnIdentityAsTheOtherKindAborts) {
  Registry registry;
  registry.set_counter("net.depth", 1, {{"rank", "0"}});
  EXPECT_DEATH(registry.set_gauge("net.depth", 1, {{"rank", "0"}}),
               "precondition");
  registry.set_gauge("net.level", 1);
  EXPECT_DEATH(registry.set_counter("net.level", 1), "precondition");
}

} // namespace
} // namespace tlb::obs
