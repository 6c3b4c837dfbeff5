#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "mini_json.hpp"
#include "obs/telemetry.hpp"

namespace tlb::obs {
namespace {

/// Enables telemetry for one test and restores the dormant default on
/// exit, so tracer tests cannot leak state into each other.
class ScopedTelemetry {
public:
  ScopedTelemetry() {
    set_enabled(true);
    Tracer::instance().clear();
  }
  ~ScopedTelemetry() {
    Tracer::instance().clear();
    set_enabled(false);
  }
};

TEST(Tracer, DisabledRecordsNothing) {
  set_enabled(false);
  Tracer::instance().clear();
  {
    TLB_SPAN("test", "ignored");
    TLB_INSTANT("test", "also_ignored");
  }
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

TEST(Tracer, SpanAndInstantRoundTripThroughChromeJson) {
  ScopedTelemetry telemetry;
  {
    TLB_SPAN_ARG("cat_a", "span_one", "n", 7);
    TLB_INSTANT_ARG("cat_b", "point_one", "k", 3.5);
  }
  EXPECT_EQ(Tracer::instance().event_count(), 2u);

  std::ostringstream os;
  Tracer::instance().write_chrome_trace(os);
  auto const doc = test::parse_json(os.str());

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
  auto const& events = doc.at("traceEvents").array();
  // Metadata record + the two recorded events.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("ph").str(), "M");
  EXPECT_EQ(events[0].at("name").str(), "process_name");

  // The instant records first (it completes before the span's scope
  // closes); find by phase rather than order.
  bool saw_span = false;
  bool saw_instant = false;
  for (std::size_t i = 1; i < events.size(); ++i) {
    auto const& e = events[i];
    if (e.at("ph").str() == "X") {
      saw_span = true;
      EXPECT_EQ(e.at("name").str(), "span_one");
      EXPECT_EQ(e.at("cat").str(), "cat_a");
      EXPECT_GE(e.at("dur").num(), 0.0);
      EXPECT_EQ(e.at("args").at("n").num(), 7.0);
    } else {
      saw_instant = true;
      EXPECT_EQ(e.at("ph").str(), "i");
      EXPECT_EQ(e.at("name").str(), "point_one");
      EXPECT_EQ(e.at("s").str(), "t");
      EXPECT_EQ(e.at("args").at("k").num(), 3.5);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST(Tracer, SetArgAttachesMidScope) {
  ScopedTelemetry telemetry;
  {
    SpanGuard span{"test", "late_arg"};
    span.set_arg("count", 11.0);
  }
  std::ostringstream os;
  Tracer::instance().write_chrome_trace(os);
  auto const doc = test::parse_json(os.str());
  auto const& events = doc.at("traceEvents").array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].at("args").at("count").num(), 11.0);
}

TEST(Tracer, ClearResetsEventsAndDropCounts) {
  ScopedTelemetry telemetry;
  TLB_INSTANT("test", "one");
  EXPECT_EQ(Tracer::instance().event_count(), 1u);
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
  EXPECT_EQ(Tracer::instance().dropped(), 0u);
}

TEST(Tracer, TimestampsAreMonotonicWithinAThread) {
  ScopedTelemetry telemetry;
  auto& tracer = Tracer::instance();
  auto const t0 = tracer.now_us();
  TLB_INSTANT("test", "a");
  auto const t1 = tracer.now_us();
  EXPECT_GE(t1, t0);
}

TEST(Tracer, ConcurrentRecordingKeepsEveryEvent) {
  ScopedTelemetry telemetry;
  constexpr int num_threads = 4;
  constexpr int per_thread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < per_thread; ++i) {
        TLB_INSTANT("mt", "tick");
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(Tracer::instance().event_count(),
            static_cast<std::size_t>(num_threads) * per_thread);
  EXPECT_EQ(Tracer::instance().dropped(), 0u);

  // Distinct threads must land on distinct tids in the emitted JSON.
  std::ostringstream os;
  Tracer::instance().write_chrome_trace(os);
  auto const doc = test::parse_json(os.str());
  std::vector<double> tids;
  for (auto const& e : doc.at("traceEvents").array()) {
    if (e.at("ph").str() == "i") {
      tids.push_back(e.at("tid").num());
    }
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(num_threads));
}

TEST(Tracer, ChromeTraceTidIsTheRecordingThreadsBufferIndex) {
  // Buffers are never removed, so each new recording thread registers the
  // next index, and the trace names it by that index.
  ScopedTelemetry telemetry;
  std::thread{[] { TLB_INSTANT("tid", "first"); }}.join();
  std::thread{[] {
    TLB_INSTANT("tid", "second");
    TLB_INSTANT("tid", "second");
  }}.join();

  std::ostringstream os;
  Tracer::instance().write_chrome_trace(os);
  auto const doc = test::parse_json(os.str());
  std::vector<double> first;
  std::vector<double> second;
  for (auto const& e : doc.at("traceEvents").array()) {
    if (e.at("ph").str() != "i") {
      continue;
    }
    (e.at("name").str() == "first" ? first : second)
        .push_back(e.at("tid").num());
  }
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0], first[0] + 1.0);
  EXPECT_EQ(second[1], second[0]);
}

TEST(Tracer, ChromeTraceReportsDroppedEvents) {
  ScopedTelemetry telemetry;
  static_assert(Tracer::max_events_per_thread == std::size_t{1} << 16);
  constexpr std::size_t cap = Tracer::max_events_per_thread;
  std::thread{[] {
    for (std::size_t i = 0; i < cap + 5; ++i) {
      TLB_INSTANT("test", "spam");
    }
  }}.join();
  EXPECT_EQ(Tracer::instance().event_count(), cap);
  EXPECT_EQ(Tracer::instance().dropped(), 5u);

  std::ostringstream os;
  Tracer::instance().write_chrome_trace(os);
  auto const doc = test::parse_json(os.str());
  EXPECT_EQ(doc.at("droppedEvents").num(), 5.0);
  // Metadata record + the kept events.
  EXPECT_EQ(doc.at("traceEvents").array().size(), cap + 1);
}

// The causal log keeps its deliveries in the same ThreadLog, so this
// covers its overflow rule too.
TEST(Tracer, OverflowDropsNewestAndCounts) {
  ScopedTelemetry telemetry;
  auto const cap = Tracer::max_events_per_thread;
  for (std::size_t i = 0; i < cap + 100; ++i) {
    TLB_INSTANT("test", "spam");
  }
  // This thread may already own events from other tests' buffers; the
  // invariant is the per-thread cap plus a nonzero drop count.
  EXPECT_LE(Tracer::instance().event_count(), cap);
  EXPECT_GE(Tracer::instance().dropped(), 100u);
}

} // namespace
} // namespace tlb::obs
