/// \file micro_cmf.cpp
/// M2 — microbenchmarks of the CMF build and sampling paths. Under the
/// recompute change (§V-A change #3) the transfer loop rebuilds the CMF
/// after every accepted transfer, so the absolute cost of a build matters.

#include <benchmark/benchmark.h>

#include "lb/cmf.hpp"
#include "runtime/serialize.hpp"
#include "support/rng.hpp"

namespace {

using namespace tlb;
using namespace tlb::lb;

Knowledge make_knowledge(std::size_t n, std::uint64_t seed) {
  Knowledge k;
  Rng rng{seed};
  for (std::size_t i = 0; i < n; ++i) {
    k.insert(static_cast<RankId>(i + 1), rng.uniform(0.0, 0.95));
  }
  return k;
}

void BM_CmfBuild(benchmark::State& state) {
  auto const n = static_cast<std::size_t>(state.range(0));
  auto const kind = state.range(1) == 0 ? CmfKind::original
                                        : CmfKind::modified;
  auto const k = make_knowledge(n, 42);
  for (auto _ : state) {
    Cmf cmf{kind, k.entries(), 1.0, 0};
    benchmark::DoNotOptimize(cmf);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CmfBuild)
    ->ArgsProduct({{16, 256, 4096}, {0, 1}});

void BM_CmfSample(benchmark::State& state) {
  auto const n = static_cast<std::size_t>(state.range(0));
  auto const k = make_knowledge(n, 42);
  Cmf const cmf{CmfKind::modified, k.entries(), 1.0, 0};
  Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cmf.sample(rng));
  }
}
BENCHMARK(BM_CmfSample)->Arg(16)->Arg(256)->Arg(4096);

/// One accepted-transfer step under CmfRefresh::recompute: rebuild the
/// CMF from n-rank knowledge, sample a recipient, and commit a speculative
/// delta — O(n) per accepted transfer. The +d/−d delta pair keeps the
/// state steady so the loop never saturates.
void BM_CmfRecomputeStep(benchmark::State& state) {
  auto const n = static_cast<std::size_t>(state.range(0));
  auto k = make_knowledge(n, 42);
  Rng rng{7};
  for (auto _ : state) {
    Cmf const cmf{CmfKind::modified, k.entries(), 1.0, 0};
    RankId const target = cmf.sample(rng);
    k.add_load(target, 0.01);
    k.add_load(target, -0.01);
    benchmark::DoNotOptimize(k);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CmfRecomputeStep)->Arg(16)->Arg(256)->Arg(4096);

/// The inform regime: a receiver holding n entries merges a 2-entry
/// packed delta through merge_packed (gossip messages carry ~2 entries on
/// average at 1024 ranks). The delta's ranks are known after the first
/// pass, so an iteration costs what each later arrival of an entry costs:
/// a walk over the payload, independent of the receiver's n entries.
void BM_KnowledgeMerge(benchmark::State& state) {
  auto const n = static_cast<std::size_t>(state.range(0));
  auto k = make_knowledge(n, 1);
  Knowledge delta;
  delta.insert(static_cast<RankId>(n / 3), 0.5);
  delta.insert(static_cast<RankId>(n + 7), 0.25);
  rt::Packer packer;
  delta.pack(packer, true);
  auto const bytes = packer.bytes();
  for (auto _ : state) {
    rt::Unpacker unpacker{bytes};
    k.merge_packed(unpacker);
    benchmark::DoNotOptimize(k.size());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KnowledgeMerge)->Arg(16)->Arg(256)->Arg(4096);

} // namespace
