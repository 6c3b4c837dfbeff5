/// \file micro_telemetry.cpp
/// M5 — google-benchmark microbenchmarks of the telemetry layer itself:
/// the cost of a dormant guard (enabled() == false, the hot-path case the
/// <2% overhead budget rides on), of recording a span, of a full
/// instrumented LB invocation with telemetry on versus off, and of
/// exporting a populated metrics registry.

#include <benchmark/benchmark.h>

#include <sstream>

#include "lbaf/experiment.hpp"
#include "lbaf/workload.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"

namespace {

using namespace tlb;

/// The dormant fast path: one relaxed atomic load plus a not-taken branch.
/// This is what every TLB_SPAN/TLB_INSTANT site costs while telemetry is
/// not runtime-enabled.
void BM_DormantSpanGuard(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) {
    TLB_SPAN("bench", "dormant");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DormantSpanGuard);

void BM_LiveSpan(benchmark::State& state) {
  obs::set_enabled(true);
  obs::Tracer::instance().clear();
  for (auto _ : state) {
    TLB_SPAN("bench", "live");
    benchmark::ClobberMemory();
  }
  state.counters["events"] =
      static_cast<double>(obs::Tracer::instance().event_count());
  obs::Tracer::instance().clear();
  obs::set_enabled(false);
}
BENCHMARK(BM_LiveSpan);

/// End-to-end: one sequential-emulation LB experiment with telemetry off
/// vs. on (spans + LB report collection). The ratio of these two is the
/// honest overhead number quoted in DESIGN.md.
void run_experiment_once(bool telemetry, std::uint64_t seed) {
  obs::set_enabled(telemetry);
  auto const workload = lbaf::make_bimodal(
      256, 8, 2000, lbaf::BimodalSpec{}, seed);
  auto params = lb::LbParams::tempered();
  params.num_trials = 1;
  params.num_iterations = 4;
  params.rounds = 5;
  if (telemetry) {
    obs::LbReportBuilder builder;
    auto result = lbaf::run_experiment(params, workload, &builder);
    benchmark::DoNotOptimize(result.best_imbalance);
  } else {
    auto result = lbaf::run_experiment(params, workload);
    benchmark::DoNotOptimize(result.best_imbalance);
  }
}

void BM_ExperimentTelemetryOff(benchmark::State& state) {
  std::uint64_t seed = 11;
  for (auto _ : state) {
    run_experiment_once(false, seed++);
  }
}
BENCHMARK(BM_ExperimentTelemetryOff)->Unit(benchmark::kMillisecond);

void BM_ExperimentTelemetryOn(benchmark::State& state) {
  std::uint64_t seed = 11;
  obs::Tracer::instance().clear();
  for (auto _ : state) {
    run_experiment_once(true, seed++);
    obs::Tracer::instance().clear(); // keep the buffers from saturating
  }
  obs::set_enabled(false);
}
BENCHMARK(BM_ExperimentTelemetryOn)->Unit(benchmark::kMillisecond);

/// Serialization cost of a populated registry (not on any hot path, but
/// worth knowing for per-phase dumps).
void BM_RegistryWriteJson(benchmark::State& state) {
  obs::Registry registry;
  for (int i = 0; i < 64; ++i) {
    registry.set_counter("bench.metric." + std::to_string(i),
                         static_cast<std::uint64_t>(i),
                         {{"category", i % 2 == 0 ? "gossip" : "transfer"}});
  }
  for (auto _ : state) {
    std::ostringstream os;
    registry.write_json(os);
    benchmark::DoNotOptimize(os.str());
  }
}
BENCHMARK(BM_RegistryWriteJson);

} // namespace
