/// \file micro_fault.cpp
/// M5 — cost of the fault plane on the message hot path.
///
/// Three price points, measured on the same 64-rank fan-out workload as
/// BM_MessageThroughput in micro_runtime.cpp:
///
///   BM_FaultPathNone       — no hook installed: the dormant cost, one
///                            pointer test per send/drain. Compare against
///                            BM_MessageThroughput/1 to bound it.
///   BM_FaultPathCleanHook  — the "none" profile installed: every message
///                            takes the virtual on_send call but no fault
///                            fires.
///   BM_FaultPathDrops      — the canonical lossy profile actually
///                            injecting faults.

#include <benchmark/benchmark.h>

#include "runtime/runtime.hpp"

#include "fault/fault_config.hpp"
#include "fault/fault_plane.hpp"

namespace {

using namespace tlb;
using namespace tlb::rt;

RuntimeConfig config() {
  RuntimeConfig cfg;
  cfg.num_ranks = 64;
  cfg.num_threads = 1;
  cfg.seed = 0xbe7c;
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

void BM_FaultPathNone(benchmark::State& state) {
  Runtime rt{config()};
  pump(rt, state);
}
BENCHMARK(BM_FaultPathNone)->Unit(benchmark::kMicrosecond);

void BM_FaultPathCleanHook(benchmark::State& state) {
  Runtime rt{config()};
  auto plane = fault::install_fault_plane(rt, fault::FaultConfig::none());
  pump(rt, state);
  rt.set_fault_hook(nullptr);
}
BENCHMARK(BM_FaultPathCleanHook)->Unit(benchmark::kMicrosecond);

void BM_FaultPathDrops(benchmark::State& state) {
  Runtime rt{config()};
  auto plane = fault::install_fault_plane(rt, fault::FaultConfig::drops());
  pump(rt, state);
  rt.set_fault_hook(nullptr);
}
BENCHMARK(BM_FaultPathDrops)->Unit(benchmark::kMicrosecond);

} // namespace
