/// \file gossip_alloc_test.cpp
/// Pins the inform plane's zero-allocation property: after a warm-up
/// epoch has grown every capacity (knowledge vectors and bitsets, epoch
/// arenas, overlay peer lists, runtime mailboxes), steady-state inform
/// rounds must perform zero heap allocations.
///
/// The counter is a global operator new/delete override, which is why
/// this test lives in its own binary: the override is process-wide and
/// would skew any allocation-sensitive behavior in sibling tests.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../support/alloc_counter.hpp"
#include "lb/strategy/inform_plane.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace tlb::lb {
namespace {

using test::start_counting_allocations;
using test::stop_counting_allocations;

TEST(GossipAllocTest, SteadyStateInformRoundsDoNotAllocate) {
  RankId const p = 32;
  rt::RuntimeConfig cfg;
  cfg.num_ranks = p;
  cfg.seed = 4242;
  // Pre-reserve the delivery path too: the plane's own buffers are sized
  // at construction, and this keeps mailbox bursts off the allocator.
  cfg.mailbox_reserve = 4096;
  rt::Runtime rt{cfg};

  std::vector<LoadType> loads(static_cast<std::size_t>(p));
  Rng gen{9};
  for (auto& l : loads) {
    l = gen.uniform(0.0, 2.0);
  }
  LoadType const l_ave = 1.0;

  auto plane = std::make_shared<InformPlane>(
      p, /*root_seed=*/cfg.seed, GossipWire::delta, /*fanout=*/6,
      /*rounds=*/10, /*max_knowledge=*/0, /*report=*/nullptr);

  auto run_epoch = [&] {
    plane->reset_epoch();
    rt.post_all([&plane, &loads, l_ave](rt::RankContext& ctx) {
      auto const load = loads[static_cast<std::size_t>(ctx.rank())];
      if (load < l_ave) {
        plane->seed_and_forward(ctx, load);
      }
    });
    ASSERT_TRUE(rt.run_until_quiescent());
  };

  // Warm-up: grow every capacity on both the plane and the runtime.
  for (int epoch = 0; epoch < 3; ++epoch) {
    run_epoch();
  }

  start_counting_allocations();
  for (int epoch = 0; epoch < 4; ++epoch) {
    run_epoch();
  }
  EXPECT_EQ(stop_counting_allocations(), 0u)
      << "steady-state inform rounds must reuse warm capacities";

  // Sanity-check the counter itself: it must see a real allocation.
  start_counting_allocations();
  auto* probe = new int{1};
  EXPECT_GT(stop_counting_allocations(), 0u);
  delete probe;
}

TEST(GossipAllocTest, CounterSeesAlignedEnvelopeStorage) {
  // Envelopes are 64-aligned, so their vectors allocate through the
  // align_val_t operator new. Were that invisible to the counter, the
  // pins here would miss every mailbox and coalescer growth.
  std::vector<rt::Envelope> envelopes;
  start_counting_allocations();
  envelopes.reserve(16);
  EXPECT_EQ(stop_counting_allocations(), 1u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(envelopes.data()) %
                alignof(rt::Envelope),
            0u);
}

TEST(GossipAllocTest, FullWireAlsoRunsAllocationFree) {
  // The zero-allocation property is a plane invariant, not a delta-mode
  // perk: full snapshots serialize into the same epoch arenas.
  RankId const p = 16;
  rt::RuntimeConfig cfg;
  cfg.num_ranks = p;
  cfg.seed = 77;
  cfg.mailbox_reserve = 4096;
  rt::Runtime rt{cfg};
  std::vector<LoadType> loads(static_cast<std::size_t>(p), 0.0);
  for (RankId r = 0; r < p; r += 2) {
    loads[static_cast<std::size_t>(r)] = 2.0;
  }
  auto plane = std::make_shared<InformPlane>(p, cfg.seed, GossipWire::full,
                                             4, 6, 0, nullptr);
  auto run_epoch = [&] {
    plane->reset_epoch();
    rt.post_all([&plane, &loads](rt::RankContext& ctx) {
      auto const load = loads[static_cast<std::size_t>(ctx.rank())];
      if (load < 1.0) {
        plane->seed_and_forward(ctx, load);
      }
    });
    ASSERT_TRUE(rt.run_until_quiescent());
  };
  for (int epoch = 0; epoch < 3; ++epoch) {
    run_epoch();
  }
  start_counting_allocations();
  run_epoch();
  EXPECT_EQ(stop_counting_allocations(), 0u);
}

TEST(GossipAllocTest, CappedKnowledgeAlsoRunsAllocationFree) {
  // Capped knowledge truncates on receipt and resends a full snapshot
  // after every truncation: the one path whose arena bound is sized from
  // the cap rather than from P, and the only one that sorts mid-epoch.
  RankId const p = 32;
  rt::RuntimeConfig cfg;
  cfg.num_ranks = p;
  cfg.seed = 31;
  cfg.mailbox_reserve = 4096;
  rt::Runtime rt{cfg};
  std::vector<LoadType> loads(static_cast<std::size_t>(p));
  Rng gen{13};
  for (auto& l : loads) {
    l = gen.uniform(0.0, 2.0);
  }
  auto plane = std::make_shared<InformPlane>(p, cfg.seed, GossipWire::delta,
                                             6, 10, /*max_knowledge=*/4,
                                             nullptr);
  auto run_epoch = [&] {
    plane->reset_epoch();
    rt.post_all([&plane, &loads](rt::RankContext& ctx) {
      auto const load = loads[static_cast<std::size_t>(ctx.rank())];
      if (load < 1.0) {
        plane->seed_and_forward(ctx, load);
      }
    });
    ASSERT_TRUE(rt.run_until_quiescent());
  };
  for (int epoch = 0; epoch < 3; ++epoch) {
    run_epoch();
  }
  start_counting_allocations();
  for (int epoch = 0; epoch < 4; ++epoch) {
    run_epoch();
  }
  EXPECT_EQ(stop_counting_allocations(), 0u);
  // The cap held, so truncation (and its full-snapshot recovery) ran.
  for (RankId r = 0; r < p; ++r) {
    EXPECT_LE(plane->knowledge_of(r).size(), 4u);
  }
}

} // namespace
} // namespace tlb::lb
