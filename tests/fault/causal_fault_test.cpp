/// \file causal_fault_test.cpp
/// Causal stamps must survive the fault plane: duplicates share their
/// original's id (the clone IS the same logical message), delayed
/// messages keep their stamp across the hold, and the injected-crash
/// trigger dumps a flight record. Only meaningful with both gates on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "fault/fault_config.hpp"
#include "fault/fault_plane.hpp"
#include "obs/causal.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "runtime/runtime.hpp"

namespace tlb::fault {
namespace {

rt::RuntimeConfig rt_config(RankId ranks, std::uint64_t seed = 0xfab1e) {
  rt::RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.num_threads = 1;
  cfg.seed = seed;
  return cfg;
}

FaultConfig single_kind(rt::MessageKind kind, double drop, double dup,
                        double delay) {
  FaultConfig cfg;
  cfg.name = "test";
  auto& k = cfg.kinds[static_cast<std::size_t>(kind)];
  k.drop = drop;
  k.duplicate = dup;
  k.delay = delay;
  k.delay_min_polls = 1;
  k.delay_max_polls = 4;
  return cfg;
}

class ScopedTelemetry {
public:
  ScopedTelemetry() {
    obs::set_enabled(true);
    obs::CausalLog::instance().clear();
  }
  ~ScopedTelemetry() {
    obs::CausalLog::instance().clear();
    obs::set_enabled(false);
  }
};

/// Fan a burst of gossip-kind messages out from every rank.
void pump(rt::Runtime& rt, int fanout = 6) {
  rt.post_all([fanout](rt::RankContext& ctx) {
    for (int i = 0; i < fanout; ++i) {
      auto const dest = static_cast<RankId>(ctx.rng().uniform_below(
          static_cast<std::uint64_t>(ctx.num_ranks())));
      ctx.send(dest, 32, [](rt::RankContext&) {},
               rt::MessageKind::gossip);
    }
  });
  ASSERT_TRUE(rt.run_until_quiescent());
}

TEST(CausalFault, DuplicatesShareTheOriginalsId) {
  ScopedTelemetry scoped;
  rt::Runtime rt{rt_config(8)};
  auto plane =
      install_fault_plane(rt, single_kind(rt::MessageKind::gossip, 0.0,
                                          1.0, 0.0)); // always duplicate
  pump(rt);
  rt.set_fault_hook(nullptr);

  auto const stats = rt.stats();
  auto const dup_count = stats.kind_duplicated[static_cast<std::size_t>(
      rt::MessageKind::gossip)];
  ASSERT_GT(dup_count, 0u);

  // Every duplicated gossip id must appear exactly twice, with identical
  // stamps (same parent, hop, origin) — the clone is the same message.
  std::map<std::uint64_t, std::vector<obs::CausalEvent>> by_id;
  for (auto const& e : obs::CausalLog::instance().snapshot()) {
    if (std::string_view{e.kind} == "gossip") {
      by_id[e.stamp.id].push_back(e);
    }
  }
  std::size_t pairs = 0;
  for (auto const& [id, events] : by_id) {
    ASSERT_LE(events.size(), 2u) << "duplicates must not fission";
    if (events.size() == 2) {
      ++pairs;
      EXPECT_EQ(events[0].stamp.parent, events[1].stamp.parent);
      EXPECT_EQ(events[0].stamp.hop, events[1].stamp.hop);
      EXPECT_EQ(events[0].stamp.origin, events[1].stamp.origin);
    }
  }
  EXPECT_EQ(pairs, dup_count);
}

TEST(CausalFault, DelayedMessagesKeepTheirStamp) {
  ScopedTelemetry scoped;
  rt::Runtime rt{rt_config(8)};
  auto plane =
      install_fault_plane(rt, single_kind(rt::MessageKind::gossip, 0.0,
                                          0.0, 1.0)); // always delay
  pump(rt);
  rt.set_fault_hook(nullptr);

  auto const stats = rt.stats();
  ASSERT_GT(stats.kind_delayed[static_cast<std::size_t>(
                rt::MessageKind::gossip)],
            0u);

  // All gossip sends came from root handlers (hop 0), so each delivery
  // must still carry hop 1 and a nonzero parent despite the hold.
  std::size_t gossip_events = 0;
  for (auto const& e : obs::CausalLog::instance().snapshot()) {
    if (std::string_view{e.kind} == "gossip") {
      ++gossip_events;
      EXPECT_NE(e.stamp.id, 0u);
      EXPECT_NE(e.stamp.parent, 0u);
      EXPECT_EQ(e.stamp.hop, 1u);
    }
  }
  EXPECT_GT(gossip_events, 0u);
}

TEST(CausalFault, DropsLeaveSurvivorsWithValidChains) {
  ScopedTelemetry scoped;
  rt::Runtime rt{rt_config(8)};
  auto plane = install_fault_plane(
      rt, single_kind(rt::MessageKind::gossip, 0.5, 0.0, 0.0));
  pump(rt, 8);
  rt.set_fault_hook(nullptr);

  // Dropped messages never deliver, so they must not appear; the
  // critical-path reducer still finds a coherent chain in the survivors.
  auto const events = obs::CausalLog::instance().snapshot();
  ASSERT_FALSE(events.empty());
  for (auto const& e : events) {
    EXPECT_NE(e.stamp.id, 0u);
  }
  auto const path = obs::compute_critical_path(events);
  EXPECT_FALSE(path.chain.empty());
}

TEST(CausalFault, InjectedCrashDumpsFlightRecord) {
  ScopedTelemetry scoped;
  auto const path = ::testing::TempDir() + "fr_crash.json";
  std::remove(path.c_str());
  obs::set_flight_record_path(path);
  obs::rearm_flight_recorder();

  FaultConfig cfg;
  cfg.name = "crash";
  cfg.crash_rank = 3;
  cfg.crash_at_poll = 2;
  rt::Runtime rt{rt_config(8)};
  auto plane = install_fault_plane(rt, cfg);
  pump(rt, 4);
  rt.set_fault_hook(nullptr);

  EXPECT_TRUE(obs::flight_record_dumped());
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"reason\": \"fault_crash\""), std::string::npos);

  std::remove(path.c_str());
  obs::set_flight_record_path("");
  obs::rearm_flight_recorder();
}

} // namespace
} // namespace tlb::fault
