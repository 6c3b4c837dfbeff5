/// \file threaded_stress_test.cpp
/// Seeded multi-threaded stress for the worker-pool driver: hammer
/// send / migrate / quiesce across several worker counts and check exact
/// message accounting afterwards. These tests are the ThreadSanitizer
/// workload (scripts/tsan.sh, CI `tsan` job): every cross-thread edge the
/// runtime has — MPSC mailbox handoff, the in-flight quiescence counter,
/// network statistics, object-store migration — is exercised here with enough concurrency for TSan to observe conflicting
/// access pairs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "support/check.hpp"

namespace tlb::rt {
namespace {

RuntimeConfig stress_config(RankId ranks, int threads,
                            std::uint64_t seed_salt = 0) {
  RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.num_threads = threads;
  cfg.seed = 0x57e55ull + seed_salt;
  cfg.batch = 4; // small batches force more scheduler round-trips
  return cfg;
}

/// Fan-out workload: every handler execution counts itself, then sends
/// `kFanout` messages to random ranks until its ttl expires. With P roots
/// at ttl T the exact number of handler executions is P * (2^(T+1) - 1).
constexpr int kFanout = 2;
constexpr int kTtl = 6;

std::uint64_t expected_fanout_messages(RankId ranks) {
  return static_cast<std::uint64_t>(ranks) *
         ((std::uint64_t{1} << (kTtl + 1)) - std::uint64_t{1});
}

struct FanOut {
  std::atomic<std::uint64_t>* executed;

  void run(RankContext& ctx, int ttl) const {
    executed->fetch_add(1, std::memory_order_relaxed);
    if (ttl == 0) {
      return;
    }
    for (int i = 0; i < kFanout; ++i) {
      auto const to = static_cast<RankId>(ctx.rng().uniform_below(
          static_cast<std::uint64_t>(ctx.num_ranks())));
      FanOut self = *this;
      ctx.send(to, 16, [self, ttl](RankContext& dest) {
        self.run(dest, ttl - 1);
      });
    }
  }
};

class ThreadedStress : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedStress, RandomFanOutQuiescesWithExactCount) {
  int const threads = GetParam();
  constexpr RankId p = 24;
  Runtime rt{stress_config(p, threads)};
  std::atomic<std::uint64_t> executed{0};

  FanOut fan{&executed};
  for (RankId r = 0; r < p; ++r) {
    rt.post(r, [fan](RankContext& ctx) { fan.run(ctx, kTtl); });
  }
  rt.run_until_quiescent();

  EXPECT_EQ(executed.load(), expected_fanout_messages(p));
  // Network statistics must agree exactly with the handler count: one
  // record_send per post and per send, none lost to racing updates.
  EXPECT_EQ(rt.stats().messages, expected_fanout_messages(p));
}

TEST_P(ThreadedStress, RepeatedQuiesceCyclesStayConsistent) {
  int const threads = GetParam();
  constexpr RankId p = 12;
  Runtime rt{stress_config(p, threads, 1)};
  std::atomic<std::uint64_t> executed{0};

  std::uint64_t expected = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    FanOut fan{&executed};
    for (RankId r = 0; r < p; ++r) {
      rt.post(r, [fan](RankContext& ctx) { fan.run(ctx, kTtl); });
    }
    rt.run_until_quiescent();
    expected += expected_fanout_messages(p);
    ASSERT_EQ(executed.load(), expected) << "cycle " << cycle;
    if (audit::enabled()) {
      // Ground truth vs audit bookkeeping: every enqueue matched by
      // exactly one execution across all cycles so far.
      ASSERT_EQ(rt.audit_enqueued(), rt.audit_processed());
      ASSERT_EQ(rt.audit_processed(), expected);
    }
  }
}

TEST_P(ThreadedStress, ManyProducersOneConsumerMailbox) {
  // Every rank floods rank 0; the MPSC mailbox handoff (producer push
  // under one worker, consumer batch-pop under another) is the hottest
  // cross-thread edge in the runtime.
  int const threads = GetParam();
  constexpr RankId p = 16;
  constexpr int kPerRank = 200;
  Runtime rt{stress_config(p, threads, 2)};
  std::atomic<std::uint64_t> received{0};

  rt.post_all([&received](RankContext& ctx) {
    for (int i = 0; i < kPerRank; ++i) {
      ctx.send(0, 8, [&received](RankContext& dest) {
        ASSERT_EQ(dest.rank(), 0);
        received.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  rt.run_until_quiescent();
  EXPECT_EQ(received.load(), static_cast<std::uint64_t>(p) * kPerRank);
}

struct StressPayload : Migratable {
  explicit StressPayload(std::size_t bytes, std::uint64_t tag)
      : bytes_{bytes}, tag_{tag} {}
  [[nodiscard]] std::size_t wire_bytes() const override { return bytes_; }
  std::size_t bytes_;
  std::uint64_t tag_;
};

TEST_P(ThreadedStress, MigrationChurnConservesTasks) {
  int const threads = GetParam();
  constexpr RankId p = 8;
  constexpr TaskId kTasks = 96;
  Runtime rt{stress_config(p, threads, 3)};
  ObjectStore store{p};
  for (TaskId t = 0; t < kTasks; ++t) {
    store.create(static_cast<RankId>(t % p), t,
                 std::make_unique<StressPayload>(64, t));
  }

  Rng shuffle{0xc0ffee};
  for (int round = 0; round < 6; ++round) {
    std::vector<Migration> moves;
    for (TaskId t = 0; t < kTasks; ++t) {
      auto const from = store.owner(t);
      auto const to = static_cast<RankId>(
          shuffle.uniform_below(static_cast<std::uint64_t>(p)));
      moves.push_back(Migration{t, from, to, 1.0});
    }
    store.migrate(rt, moves);

    ASSERT_EQ(store.total_tasks(), static_cast<std::size_t>(kTasks));
    std::size_t resident = 0;
    for (RankId r = 0; r < p; ++r) {
      for (TaskId const t : store.tasks_on(r)) {
        ASSERT_EQ(store.owner(t), r);
        auto const* payload =
            dynamic_cast<StressPayload const*>(store.find(r, t));
        ASSERT_NE(payload, nullptr);
        ASSERT_EQ(payload->tag_, static_cast<std::uint64_t>(t));
        ++resident;
      }
    }
    ASSERT_EQ(resident, static_cast<std::size_t>(kTasks));
  }
}

TEST_P(ThreadedStress, RingRelayCountsEveryHopUnderThreads) {
  int const threads = GetParam();
  constexpr RankId p = 16;
  Runtime rt{stress_config(p, threads, 4)};

  // A counted ripple: each rank relays a token around the ring 4 times.
  constexpr int kLaps = 4;
  std::atomic<std::uint64_t> hops{0};
  std::function<void(RankContext&, int)> relay =
      [&](RankContext& ctx, int remaining) {
        hops.fetch_add(1, std::memory_order_relaxed);
        if (remaining == 0) {
          return;
        }
        auto const next = static_cast<RankId>((ctx.rank() + 1) % p);
        ctx.send(next, 8, [&relay, remaining](RankContext& dest) {
          relay(dest, remaining - 1);
        });
      };
  for (RankId r = 0; r < p; ++r) {
    rt.post(r, [&relay](RankContext& ctx) {
      relay(ctx, kLaps * static_cast<int>(p));
    });
  }
  rt.run_until_quiescent();

  // p injected posts plus p ripples of kLaps*p hops each, every one both
  // counted by the network statistics and run.
  auto const expected =
      static_cast<std::uint64_t>(p) * (1 + kLaps * static_cast<int>(p));
  EXPECT_EQ(rt.stats().messages, expected);
  EXPECT_EQ(hops.load(), expected);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ThreadedStress,
                         ::testing::Values(2, 3, 4, 8),
                         [](auto const& param_info) {
                           return "threads" +
                                  std::to_string(param_info.param);
                         });

} // namespace
} // namespace tlb::rt
