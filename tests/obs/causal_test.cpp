#include "obs/causal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mini_json.hpp"
#include "obs/telemetry.hpp"
#include "runtime/runtime.hpp"

namespace tlb::obs {
namespace {

class ScopedTelemetry {
public:
  ScopedTelemetry() {
    set_enabled(true);
    CausalLog::instance().clear();
    CausalLog::instance().set_step(0);
  }
  ~ScopedTelemetry() {
    CausalLog::instance().clear();
    set_enabled(false);
  }
};

rt::RuntimeConfig config(RankId ranks = 4) {
  rt::RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  return cfg;
}

// ---------------------------------------------------------------------
// Runtime stamping
// ---------------------------------------------------------------------

TEST(CausalStamping, RootPostsGetFreshIdsAndZeroParent) {
  ScopedTelemetry scoped;
  CausalLog::instance().set_step(7);
  rt::Runtime rt{config()};
  rt.post(2, [](rt::RankContext&) {});
  rt.run_until_quiescent();

  auto const events = CausalLog::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].stamp.id, 0u);
  EXPECT_EQ(events[0].stamp.parent, 0u);
  EXPECT_EQ(events[0].stamp.hop, 0u);
  EXPECT_EQ(events[0].stamp.step, 7u);
  EXPECT_EQ(events[0].stamp.origin, 2);
  EXPECT_EQ(events[0].to, 2);
}

TEST(CausalStamping, SendsInsideHandlersChainParentAndHop) {
  ScopedTelemetry scoped;
  rt::Runtime rt{config()};
  // A three-hop relay: 0 -> 1 -> 2 -> 3.
  rt.post(0, [](rt::RankContext& ctx) {
    ctx.send(1, 8, [](rt::RankContext& ctx1) {
      ctx1.send(2, 8, [](rt::RankContext& ctx2) {
        ctx2.send(3, 8, [](rt::RankContext&) {});
      });
    });
  });
  rt.run_until_quiescent();

  auto events = CausalLog::instance().snapshot();
  ASSERT_EQ(events.size(), 4u);
  std::sort(events.begin(), events.end(),
            [](CausalEvent const& a, CausalEvent const& b) {
              return a.stamp.hop < b.stamp.hop;
            });
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].stamp.hop, i);
    // Every hop keeps the chain's origin (the root post's destination).
    EXPECT_EQ(events[i].stamp.origin, 0);
    if (i > 0) {
      EXPECT_EQ(events[i].stamp.parent, events[i - 1].stamp.id);
    }
  }
}

TEST(CausalStamping, HandlersCanReadTheirOwnCause) {
  ScopedTelemetry scoped;
  rt::Runtime rt{config()};
  static std::uint16_t seen_hop;
  seen_hop = 0xffff;
  rt.post(1, [](rt::RankContext& ctx) {
    ctx.send(2, 4, [](rt::RankContext& inner) {
      ASSERT_NE(inner.current_cause(), nullptr);
      seen_hop = inner.current_cause()->hop;
    });
  });
  rt.run_until_quiescent();
  EXPECT_EQ(seen_hop, 1u);
}

TEST(CausalStamping, DisabledTelemetryRecordsNothing) {
  set_enabled(false);
  CausalLog::instance().clear();
  rt::Runtime rt{config()};
  rt.post(0, [](rt::RankContext& ctx) {
    ctx.send(1, 8, [](rt::RankContext&) {});
  });
  rt.run_until_quiescent();
  EXPECT_EQ(CausalLog::instance().event_count(), 0u);
}

TEST(CausalStamping, SeededRunsProduceIdenticalIdSequences) {
  auto run = [] {
    ScopedTelemetry scoped;
    rt::Runtime rt{config(8)};
    rt.post_all([](rt::RankContext& ctx) {
      auto const next = static_cast<RankId>((ctx.rank() + 1) %
                                            ctx.num_ranks());
      ctx.send(next, 16, [](rt::RankContext& c2) {
        auto const nn =
            static_cast<RankId>((c2.rank() + 1) % c2.num_ranks());
        c2.send(nn, 16, [](rt::RankContext&) {});
      });
    });
    rt.run_until_quiescent();
    std::vector<std::uint64_t> ids;
    for (auto const& e : CausalLog::instance().snapshot()) {
      ids.push_back(e.stamp.id);
    }
    return ids;
  };
  auto const a = run();
  auto const b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

/// A fan-out relay: each delivery sends kRelayFanout messages on until
/// its hop budget runs out. It counts the deliveries whose current_cause()
/// was missing or changed across the handler's own sends; those sends
/// append to the stamp table, which may move its entries.
struct Relay {
  static constexpr int kRelayFanout = 3;
  std::atomic<int>* unstable;
  int ttl;

  void operator()(rt::RankContext& ctx) const {
    CausalStamp const* const cause = ctx.current_cause();
    if (cause == nullptr) {
      unstable->fetch_add(1, std::memory_order_relaxed);
      return;
    }
    CausalStamp const before = *cause;
    if (ttl > 0) {
      for (int i = 1; i <= kRelayFanout; ++i) {
        ctx.send((ctx.rank() + i) % ctx.num_ranks(), 8,
                 Relay{unstable, ttl - 1});
      }
    }
    CausalStamp const* const after = ctx.current_cause();
    if (after == nullptr || after->id != before.id ||
        after->parent != before.parent || after->hop != before.hop ||
        after->origin != before.origin || after->step != before.step) {
      unstable->fetch_add(1, std::memory_order_relaxed);
    }
  }
};

TEST(CausalStamping, ThreadedFanOutChainsEveryHop) {
  ScopedTelemetry scoped;
  CausalLog::instance().set_step(5);
  constexpr RankId kRanks = 16;
  constexpr int kTtl = 4;
  auto cfg = config(kRanks);
  cfg.num_threads = 4;
  rt::Runtime rt{cfg};
  std::atomic<int> unstable{0};
  rt.post_all(Relay{&unstable, kTtl});
  ASSERT_TRUE(rt.run_until_quiescent());
  EXPECT_EQ(unstable.load(), 0);

  // 1 + 3 + 9 + 27 + 81 deliveries per root.
  auto const events = CausalLog::instance().snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kRanks) * 121);
  std::unordered_map<std::uint64_t, CausalEvent> by_id;
  for (CausalEvent const& e : events) {
    ASSERT_NE(e.stamp.id, 0u);
    ASSERT_TRUE(by_id.emplace(e.stamp.id, e).second)
        << "duplicate id " << e.stamp.id;
  }
  std::size_t roots = 0;
  for (CausalEvent const& e : events) {
    EXPECT_EQ(e.stamp.step, 5u);
    if (e.stamp.parent == 0) {
      ++roots;
      EXPECT_EQ(e.stamp.hop, 0u);
      EXPECT_EQ(e.stamp.origin, e.to);
      continue;
    }
    auto const parent = by_id.find(e.stamp.parent);
    ASSERT_NE(parent, by_id.end()) << "parent of " << e.stamp.id;
    EXPECT_EQ(e.stamp.hop, parent->second.stamp.hop + 1);
    EXPECT_EQ(e.stamp.origin, parent->second.stamp.origin);
    EXPECT_EQ(e.stamp.step, parent->second.stamp.step);
    EXPECT_EQ(e.from, parent->second.to); // sent by the parent's handler
    EXPECT_EQ(e.bytes, 8u);
  }
  EXPECT_EQ(roots, static_cast<std::size_t>(kRanks));
}

// ---------------------------------------------------------------------
// The reducer (pure function of the event list)
// ---------------------------------------------------------------------

CausalEvent make_event(std::uint64_t id, std::uint64_t parent,
                       std::uint16_t hop, RankId to, char const* kind,
                       std::int64_t dur_us) {
  CausalEvent e;
  e.stamp.id = id;
  e.stamp.parent = parent;
  e.stamp.origin = 0;
  e.stamp.hop = hop;
  e.from = 0;
  e.to = to;
  e.kind = kind;
  e.bytes = 8;
  e.dur_us = dur_us;
  return e;
}

TEST(CriticalPath, EmptyLogYieldsEmptyPath) {
  auto const path = compute_critical_path({});
  EXPECT_TRUE(path.chain.empty());
  EXPECT_EQ(path.handler_us, 0);
}

TEST(CriticalPath, WalksDeepestChainBackToRoot) {
  // Two chains from one root: depth 2 and depth 3; the deeper one wins.
  std::vector<CausalEvent> events = {
      make_event(1, 0, 0, 0, "other", 5),
      make_event(2, 1, 1, 1, "gossip", 3),   // shallow branch
      make_event(3, 1, 1, 2, "gossip", 1),
      make_event(4, 3, 2, 3, "transfer", 2), // deep branch
  };
  auto const path = compute_critical_path(events);
  ASSERT_EQ(path.chain.size(), 3u);
  EXPECT_EQ(path.chain[0].stamp.id, 1u);
  EXPECT_EQ(path.chain[1].stamp.id, 3u);
  EXPECT_EQ(path.chain[2].stamp.id, 4u);
  EXPECT_EQ(path.handler_us, 5 + 1 + 2);
}

TEST(CriticalPath, TieOnDepthBreaksTowardLargerId) {
  std::vector<CausalEvent> events = {
      make_event(1, 0, 0, 0, "other", 0),
      make_event(2, 1, 1, 1, "gossip", 9),
      make_event(5, 1, 1, 2, "gossip", 1),
  };
  auto const path = compute_critical_path(events);
  ASSERT_EQ(path.chain.size(), 2u);
  EXPECT_EQ(path.chain.back().stamp.id, 5u);
}

TEST(CriticalPath, DuplicateIdsKeepFirstOccurrence) {
  // A fault-plane duplicate delivers the same logical message twice; the
  // first recorded delivery is authoritative.
  std::vector<CausalEvent> events = {
      make_event(1, 0, 0, 0, "other", 1),
      make_event(2, 1, 1, 1, "gossip", 7),
      make_event(2, 1, 1, 1, "gossip", 100), // the duplicate
  };
  auto const path = compute_critical_path(events);
  ASSERT_EQ(path.chain.size(), 2u);
  EXPECT_EQ(path.handler_us, 1 + 7);
}

TEST(CriticalPath, UnstampedEventsAreIgnored) {
  std::vector<CausalEvent> events = {
      make_event(0, 0, 0, 0, "other", 50), // unstamped
      make_event(1, 0, 0, 1, "other", 2),
  };
  auto const path = compute_critical_path(events);
  ASSERT_EQ(path.chain.size(), 1u);
  EXPECT_EQ(path.chain[0].stamp.id, 1u);
}

TEST(CriticalPath, AttributionSumsPerRankAndKind) {
  std::vector<CausalEvent> events = {
      make_event(1, 0, 0, 4, "other", 2),
      make_event(2, 1, 1, 5, "gossip", 3),
      make_event(3, 2, 2, 4, "gossip", 4),
  };
  auto const path = compute_critical_path(events);
  ASSERT_EQ(path.chain.size(), 3u);
  ASSERT_EQ(path.by_rank.size(), 2u);
  // Sorted by descending us: rank 4 accumulated 6us over two hops.
  EXPECT_EQ(path.by_rank[0].key, "rank 4");
  EXPECT_EQ(path.by_rank[0].us, 6);
  EXPECT_EQ(path.by_rank[0].hops, 2u);
  ASSERT_EQ(path.by_kind.size(), 2u);
  EXPECT_EQ(path.by_kind[0].key, "gossip");
  EXPECT_EQ(path.by_kind[0].us, 7);
}

TEST(CriticalPath, CyclicParentLinksTerminate) {
  // Corrupt input (id cycle): the hop-bounded walk must not spin.
  std::vector<CausalEvent> events = {
      make_event(1, 2, 1, 0, "other", 1),
      make_event(2, 1, 1, 1, "other", 1),
  };
  auto const path = compute_critical_path(events);
  EXPECT_LE(path.chain.size(), 2u);
}

// The causal log keeps twice the Tracer's events per thread.
TEST(CausalLog, OverflowDropsNewestAndCounts) {
  ScopedTelemetry scoped;
  static_assert(CausalLog::max_events_per_thread == std::size_t{1} << 17);
  constexpr std::size_t cap = CausalLog::max_events_per_thread;
  std::thread{[] {
    for (std::uint64_t id = 1; id <= cap + 3; ++id) {
      CausalLog::instance().record(make_event(id, 0, 0, 0, "gossip", 1));
    }
  }}.join();
  EXPECT_EQ(CausalLog::instance().dropped(), 3u);
  auto const events = CausalLog::instance().snapshot();
  ASSERT_EQ(events.size(), cap);
  EXPECT_EQ(events.front().stamp.id, 1u);
  EXPECT_EQ(events.back().stamp.id, cap);
}

// ---------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------

TEST(CausalJson, WriteJsonParsesBackWithAllFields) {
  ScopedTelemetry scoped;
  CausalLog::instance().set_step(3);
  CausalLog::instance().record(
      make_event((std::uint64_t{5} << 40) | 1, 0, 0, 2, "gossip", 11));

  std::ostringstream os;
  CausalLog::instance().write_json(os);
  auto const doc = test::parse_json(os.str());
  EXPECT_EQ(doc.at("step").num(), 3.0);
  EXPECT_EQ(doc.at("dropped").num(), 0.0);
  auto const& events = doc.at("events").array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("id").num(),
            static_cast<double>((std::uint64_t{5} << 40) | 1));
  EXPECT_EQ(events[0].at("parent").num(), 0.0);
  EXPECT_EQ(events[0].at("hop").num(), 0.0);
  EXPECT_EQ(events[0].at("to").num(), 2.0);
  EXPECT_EQ(events[0].at("kind").str(), "gossip");
  EXPECT_EQ(events[0].at("dur_us").num(), 11.0);
}

} // namespace
} // namespace tlb::obs
