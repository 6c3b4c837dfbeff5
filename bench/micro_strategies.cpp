/// \file micro_strategies.cpp
/// Strategy-cost scaling: wall-clock cost of one balance() call for each
/// of the paper's four balancers as rank count grows, with quality and
/// traffic counters. This is the engineering side of §IV's
/// centralized/hierarchical/distributed scalability discussion: GreedyLB's
/// cost concentrates at rank 0, HierLB splits it across leaders, and the
/// gossip schemes pay only O(f*k) messages per rank.

#include <benchmark/benchmark.h>

#include "lb/strategy/strategy.hpp"
#include "support/rng.hpp"

namespace {

using namespace tlb;

lb::StrategyInput clustered_input(RankId ranks) {
  lb::StrategyInput input;
  input.tasks.resize(static_cast<std::size_t>(ranks));
  Rng rng{7};
  TaskId id = 0;
  // Tasks on the first 1/8 of ranks, ~24 tasks each (one overdecomposed
  // hot region).
  for (RankId r = 0; r < std::max<RankId>(1, ranks / 8); ++r) {
    for (int i = 0; i < 24; ++i) {
      input.tasks[static_cast<std::size_t>(r)].push_back(
          {id++, rng.uniform(0.3, 1.5)});
    }
  }
  return input;
}

void run_strategy(benchmark::State& state, char const* name) {
  auto const ranks = static_cast<RankId>(state.range(0));
  auto const input = clustered_input(ranks);
  auto params = lb::LbParams::tempered();
  params.rounds = 5;
  params.num_trials = 2;
  params.num_iterations = 3;

  double achieved = 0.0;
  std::size_t messages = 0;
  for (auto _ : state) {
    rt::RuntimeConfig cfg;
    cfg.num_ranks = ranks;
    rt::Runtime rt{cfg};
    auto strategy = lb::make_strategy(name);
    auto const result = strategy->balance(rt, input, params);
    benchmark::DoNotOptimize(result);
    achieved = result.achieved_imbalance;
    messages = result.cost.lb_messages;
  }
  state.counters["achieved_I"] = achieved;
  state.counters["lb_messages"] = static_cast<double>(messages);
}

void BM_Tempered(benchmark::State& state) {
  run_strategy(state, "tempered");
}
void BM_Grapevine(benchmark::State& state) {
  run_strategy(state, "grapevine");
}
void BM_Greedy(benchmark::State& state) { run_strategy(state, "greedy"); }
void BM_Hier(benchmark::State& state) { run_strategy(state, "hier"); }

BENCHMARK(BM_Tempered)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Grapevine)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Greedy)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Hier)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

} // namespace
