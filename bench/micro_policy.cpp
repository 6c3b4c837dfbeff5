/// \file micro_policy.cpp
/// M7 — google-benchmark microbenchmarks of the adaptive-invocation
/// decision layer: the persistence Forecaster's per-phase
/// observe+score+predict cycle, one cost/benefit decide() (the per-phase
/// overhead a policy adds to the driver), and a full small policy ×
/// scenario simulation cell.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "policy/forecaster.hpp"
#include "policy/trigger_policy.hpp"
#include "support/rng.hpp"
#include "workload/policy_sim.hpp"

namespace {

using namespace tlb;

/// A full forecaster phase at 64 ranks: score the pending forecast,
/// keep the measurement, predict the next phase.
void BM_ForecasterPhase(benchmark::State& state) {
  policy::Forecaster forecaster;
  Rng rng{23};
  std::vector<double> loads(64, 1.0);
  for (auto _ : state) {
    for (auto& l : loads) {
      l = rng.uniform(0.5, 1.5);
    }
    forecaster.observe(loads);
    benchmark::DoNotOptimize(forecaster.predict());
  }
}
BENCHMARK(BM_ForecasterPhase);

/// One cost/benefit decision + outcome at 64 ranks — what the policy adds
/// to each phase boundary.
void BM_CostBenefitDecide(benchmark::State& state) {
  policy::CostBenefitPolicy policy;
  Rng rng{29};
  std::vector<double> loads(64, 1.0);
  std::uint64_t phase = 0;
  for (auto _ : state) {
    for (auto& l : loads) {
      l = rng.uniform(0.5, 1.5);
    }
    loads[phase % loads.size()] += 2.0; // keep it imbalanced enough to think
    auto const d = policy.decide(phase++, loads);
    policy.record_outcome(d.invoke, d.invoke ? 0.01 : 0.0, {});
    benchmark::DoNotOptimize(d.invoke);
  }
}
BENCHMARK(BM_CostBenefitDecide);

/// One small end-to-end sweep cell (16 ranks × 16 phases, greedy): the
/// granularity EXPERIMENTS.md's M7 recipe runs twenty of.
void BM_PolicySimCell(benchmark::State& state, std::string const& policy) {
  workload::SimConfig config;
  config.scenario.name = "bursty";
  config.scenario.num_ranks = 16;
  config.scenario.phases = 16;
  config.policy = policy;
  for (auto _ : state) {
    auto const result = workload::run_policy_sim(config);
    benchmark::DoNotOptimize(result.invocations);
  }
}
BENCHMARK_CAPTURE(BM_PolicySimCell, always, std::string{"always"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicySimCell, costbenefit, std::string{"costbenefit"})
    ->Unit(benchmark::kMillisecond);

} // namespace
