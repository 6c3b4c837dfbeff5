/// \file micro_runtime.cpp
/// M4 — microbenchmarks of the AMT runtime substrate: active-message
/// throughput (sequential and threaded, plus a rank-count sweep at the
/// paper's scales), allreduce latency versus rank count, and
/// object-migration throughput.

#include <benchmark/benchmark.h>

#include <atomic>

#include "runtime/collectives.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace tlb;
using namespace tlb::rt;

RuntimeConfig config(RankId ranks, int threads) {
  RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.num_threads = threads;
  return cfg;
}

/// Fan-out storm shared by the throughput benches: every rank fires
/// `fanout` empty-payload messages at uniformly random peers, repeated to
/// quiescence. Returns the number of messages (storms + deliveries) per
/// storm so callers can report items/sec.
std::int64_t run_storm(Runtime& rt) {
  constexpr int fanout = 8;
  rt.post_all([](RankContext& ctx) {
    for (int i = 0; i < fanout; ++i) {
      auto const dest = static_cast<RankId>(
          ctx.rng().uniform_below(
              static_cast<std::uint64_t>(ctx.num_ranks())));
      ctx.send(dest, 64, [](RankContext&) {});
    }
  });
  rt.run_until_quiescent();
  return static_cast<std::int64_t>(rt.num_ranks()) * (fanout + 1);
}

void BM_MessageThroughput(benchmark::State& state) {
  auto const threads = static_cast<int>(state.range(0));
  Runtime rt{config(64, threads)};
  std::int64_t per_storm = 0;
  for (auto _ : state) {
    per_storm = run_storm(rt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          per_storm);
}
BENCHMARK(BM_MessageThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

/// The sequential driver at the paper's rank counts (the acceptance
/// metric for the message-plane overhaul is messages/sec at 1024 ranks):
/// working-set scaling shows the envelope-stride and staging-copy wins
/// that per-rank numbers at P=64 understate.
void BM_MessageThroughputAtScale(benchmark::State& state) {
  auto const ranks = static_cast<RankId>(state.range(0));
  Runtime rt{config(ranks, 1)};
  std::int64_t per_storm = 0;
  for (auto _ : state) {
    per_storm = run_storm(rt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          per_storm);
}
BENCHMARK(BM_MessageThroughputAtScale)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_AllreduceLatency(benchmark::State& state) {
  auto const p = static_cast<RankId>(state.range(0));
  Runtime rt{config(p, 1)};
  std::vector<LoadType> loads(static_cast<std::size_t>(p), 1.0);
  for (auto _ : state) {
    auto stats = allreduce_loads(rt, loads);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_AllreduceLatency)->RangeMultiplier(4)->Range(16, 4096)
    ->Unit(benchmark::kMicrosecond);

class Blob final : public Migratable {
public:
  explicit Blob(std::size_t size) : size_{size} {}
  [[nodiscard]] std::size_t wire_bytes() const override { return size_; }

private:
  std::size_t size_;
};

void BM_MigrationThroughput(benchmark::State& state) {
  auto const batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt{config(16, 1)};
    ObjectStore store{16};
    std::vector<Migration> migrations;
    for (std::size_t i = 0; i < batch; ++i) {
      auto const id = static_cast<TaskId>(i);
      store.create(0, id, std::make_unique<Blob>(1024));
      migrations.push_back(
          Migration{id, 0, static_cast<RankId>(1 + i % 15), 1.0});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.migrate(rt, migrations));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MigrationThroughput)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

} // namespace
