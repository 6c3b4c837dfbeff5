/// \file micro_transfer.cpp
/// M3 — microbenchmarks of the transfer stage (Algorithm 2): one full
/// pass over candidate tasks under each (criterion, refresh, ordering)
/// combination, isolating the cost of the paper's algorithmic changes.
/// A pass scans the knowledge once at its start and, under recompute,
/// once after each accepted transfer; candidates the criterion rejects
/// even at the lowest known load skip the CMF. The CMF is built at the
/// first other candidate and, under recompute, at the first one after
/// each accepted transfer, so a recompute pass costs at most
/// O((1 + accepted) x |S^p|) on top of the candidate loop.

#include <benchmark/benchmark.h>

#include "lb/order.hpp"
#include "lb/transfer.hpp"
#include "support/rng.hpp"

namespace {

using namespace tlb;
using namespace tlb::lb;

struct Fixture {
  std::vector<TaskEntry> tasks;
  Knowledge knowledge;
  LoadType l_p = 0.0;
  LoadType l_ave = 0.0;
};

Fixture make_fixture(std::size_t num_tasks, std::size_t known_ranks) {
  Fixture f;
  Rng rng{11};
  for (std::size_t i = 0; i < num_tasks; ++i) {
    double const load = rng.uniform(0.05, 1.0);
    f.tasks.push_back({static_cast<TaskId>(i), load});
    f.l_p += load;
  }
  f.l_ave = f.l_p / 16.0;
  for (std::size_t i = 0; i < known_ranks; ++i) {
    f.knowledge.insert(static_cast<RankId>(i + 1),
                       rng.uniform(0.0, f.l_ave));
  }
  return f;
}

void run_case(benchmark::State& state, LbParams params,
              std::size_t known_ranks = 128) {
  auto const num_tasks = static_cast<std::size_t>(state.range(0));
  auto const fixture = make_fixture(num_tasks, known_ranks);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Knowledge knowledge = fixture.knowledge;
    Rng rng{seed++};
    auto result = run_transfer(params, 0, fixture.tasks, fixture.l_p,
                               fixture.l_ave, knowledge, rng);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(num_tasks));
}

void BM_TransferOriginalBuildOnce(benchmark::State& state) {
  run_case(state, LbParams::grapevine());
}
BENCHMARK(BM_TransferOriginalBuildOnce)->Arg(24)->Arg(256)->Arg(2048);

void BM_TransferRelaxedRecompute(benchmark::State& state) {
  run_case(state, LbParams::tempered());
}
BENCHMARK(BM_TransferRelaxedRecompute)->Arg(24)->Arg(256)->Arg(2048);

void BM_TransferRelaxedBuildOnce(benchmark::State& state) {
  auto params = LbParams::tempered();
  params.refresh = CmfRefresh::build_once;
  run_case(state, params);
}
BENCHMARK(BM_TransferRelaxedBuildOnce)->Arg(24)->Arg(256)->Arg(2048);

/// The recompute path at |S^p| = range(1) known ranks: how the CMF
/// builds scale with the knowledge a rank gathered.
void BM_TransferRecomputeByKnowledge(benchmark::State& state) {
  run_case(state, LbParams::tempered(),
           static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_TransferRecomputeByKnowledge)
    ->ArgsProduct({{24, 256, 2048}, {16, 256, 4096}});

void BM_OrderingCost(benchmark::State& state) {
  auto const kind = static_cast<OrderKind>(state.range(1));
  auto const fixture =
      make_fixture(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto out = order_tasks(kind, fixture.tasks, fixture.l_ave, fixture.l_p);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_OrderingCost)
    ->ArgsProduct({{256, 4096}, {0, 1, 2, 3}});

} // namespace
