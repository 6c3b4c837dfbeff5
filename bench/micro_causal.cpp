/// \file micro_causal.cpp
/// M6 — cost of causal tracing on the message hot path.
///
/// Three price points on the same 64-rank fan-out workload as
/// BM_MessageThroughput in micro_runtime.cpp:
///
///   BM_CausalDormant  — telemetry runtime-disabled. The stamp member
///                       rides in the envelope but the only work per
///                       message is the obs::enabled() relaxed load.
///                       Compare against BM_MessageThroughput/1 to bound
///                       the dormant overhead.
///   BM_CausalEnabled  — telemetry on: every send stamps a CausalStamp,
///                       every delivery is timed and appended to the
///                       CausalLog.
///   BM_CriticalPath   — the offline reducer over a log of the size one
///                       enabled pump leaves behind.

#include <benchmark/benchmark.h>

#include "obs/causal.hpp"
#include "obs/telemetry.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace tlb;
using namespace tlb::rt;

RuntimeConfig config() {
  RuntimeConfig cfg;
  cfg.num_ranks = 64;
  cfg.num_threads = 1;
  cfg.seed = 0xca05;
  return cfg;
}

void pump(Runtime& rt, benchmark::State& state) {
  constexpr int fanout = 8;
  for (auto _ : state) {
    rt.post_all([](RankContext& ctx) {
      for (int i = 0; i < fanout; ++i) {
        auto const dest = static_cast<RankId>(
            ctx.rng().uniform_below(
                static_cast<std::uint64_t>(ctx.num_ranks())));
        ctx.send(dest, 64, [](RankContext&) {}, MessageKind::gossip);
      }
    });
    rt.run_until_quiescent();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64 * (fanout + 1));
}

void BM_CausalDormant(benchmark::State& state) {
  obs::set_enabled(false);
  Runtime rt{config()};
  pump(rt, state);
}
BENCHMARK(BM_CausalDormant)->Unit(benchmark::kMicrosecond);

void BM_CausalEnabled(benchmark::State& state) {
  obs::set_enabled(true);
  obs::CausalLog::instance().clear();
  Runtime rt{config()};
  pump(rt, state);
  obs::set_enabled(false);
  obs::CausalLog::instance().clear();
}
BENCHMARK(BM_CausalEnabled)->Unit(benchmark::kMicrosecond);

void BM_CriticalPath(benchmark::State& state) {
  // Build one enabled pump's worth of log, then time the reducer alone.
  obs::set_enabled(true);
  obs::CausalLog::instance().clear();
  Runtime rt{config()};
  constexpr int fanout = 8;
  rt.post_all([](RankContext& ctx) {
    for (int i = 0; i < fanout; ++i) {
      auto const dest = static_cast<RankId>(
          ctx.rng().uniform_below(
              static_cast<std::uint64_t>(ctx.num_ranks())));
      ctx.send(dest, 64, [](RankContext&) {}, MessageKind::gossip);
    }
  });
  rt.run_until_quiescent();
  obs::set_enabled(false);
  auto const events = obs::CausalLog::instance().snapshot();
  for (auto _ : state) {
    auto path = obs::compute_critical_path(events);
    benchmark::DoNotOptimize(path.chain.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
  obs::CausalLog::instance().clear();
}
BENCHMARK(BM_CriticalPath)->Unit(benchmark::kMicrosecond);

} // namespace
