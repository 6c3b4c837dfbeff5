/// \file message_plane_test.cpp
/// Properties of the overhauled message plane: per-sender FIFO through
/// sender-side coalescing, swap-drain mailbox equivalence with a model
/// FIFO, in-place consume_batch visit semantics, work-stealing
/// determinism of results (not ordering), the P-not-divisible-by-workers
/// partitioning regression, a full-buffer closure through post_all, and
/// migration across the protocol stack.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lb/strategy/lb_manager.hpp"
#include "runtime/inline_handler.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace tlb::rt {
namespace {

RuntimeConfig config(RankId ranks, int threads, int batch = 16) {
  RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.num_threads = threads;
  cfg.batch = batch;
  return cfg;
}

// ---------------------------------------------------------------------------
// Per-sender FIFO through the coalescing flush.

/// Every rank streams sequence numbers at a handful of destinations; the
/// receiving handlers (serialized per rank by mailbox ownership) check
/// each sender's stream arrives in order. Coalescing buffers per
/// (worker, destination) and flushes whole batches, so this is the
/// property it must preserve.
void run_fifo_property(int threads) {
  constexpr RankId kRanks = 16;
  constexpr int kMessages = 64;
  // last_seen[dest][sender]: only dest's handlers touch row dest, and a
  // rank's handlers never run concurrently (single-consumer mailboxes),
  // so plain ints are race-free — the same discipline the LB protocol
  // state uses.
  auto last_seen = std::make_shared<std::vector<std::vector<int>>>(
      kRanks, std::vector<int>(kRanks, -1));
  std::atomic<int> violations{0};
  std::atomic<int> received{0};

  Runtime rt{config(kRanks, threads, /*batch=*/4)};
  for (int seq = 0; seq < kMessages; ++seq) {
    rt.post_all([last_seen, &violations, &received, seq](RankContext& ctx) {
      RankId const sender = ctx.rank();
      RankId const dest = (sender * 7 + seq) % 4; // few hot destinations
      ctx.send(dest, 16, [last_seen, &violations, &received, sender,
                          seq](RankContext& at) {
        int& last =
            (*last_seen)[static_cast<std::size_t>(at.rank())]
                        [static_cast<std::size_t>(sender)];
        if (seq <= last) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last = seq;
        received.fetch_add(1, std::memory_order_relaxed);
      });
    });
    rt.run_until_quiescent();
  }
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(received.load(), kRanks * kMessages);
}

TEST(MessagePlane, PerSenderFifoSequential) { run_fifo_property(1); }
TEST(MessagePlane, PerSenderFifoCoalescedThreaded) { run_fifo_property(4); }

/// The threaded driver runs handlers in place out of the mailbox stash.
/// Small batches leave part of the stash pending at the end of a visit,
/// so the next claim appends the producer backlog behind it instead of
/// swapping, and one hot destination's stash grows long enough to be
/// compacted. Every sender's numbered stream must still arrive in order.
TEST(MessagePlane, ThreadedInPlaceDrainKeepsPerSenderFifo) {
  constexpr RankId kRanks = 16;
  constexpr int kStreams = 8;
  constexpr int kPerStream = 64;
  for (int batch = 1; batch <= 4; ++batch) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    // last_seen[dest][sender]: row dest is touched only by dest's
    // handlers, which never run concurrently.
    auto last_seen = std::make_shared<std::vector<std::vector<int>>>(
        kRanks, std::vector<int>(kRanks, -1));
    std::atomic<int> violations{0};
    std::atomic<int> received{0};
    Runtime rt{config(kRanks, 4, batch)};
    for (int stream = 0; stream < kStreams; ++stream) {
      // Every rank fans a burst at rank 0 and one at a neighbour, so rank
      // 0's backlog keeps growing while it drains a few per visit.
      rt.post_all([last_seen, &violations, &received,
                   stream](RankContext& ctx) {
        RankId const sender = ctx.rank();
        RankId const neighbour = sender % (kRanks - 1) + 1; // never 0
        for (RankId const dest : {RankId{0}, neighbour}) {
          for (int i = 0; i < kPerStream; ++i) {
            int const seq = stream * kPerStream + i;
            ctx.send(dest, 8, [last_seen, &violations, &received, sender,
                               seq](RankContext& at) {
              int& last = (*last_seen)[static_cast<std::size_t>(at.rank())]
                                      [static_cast<std::size_t>(sender)];
              if (seq != last + 1) {
                violations.fetch_add(1, std::memory_order_relaxed);
              }
              last = seq;
              received.fetch_add(1, std::memory_order_relaxed);
            });
          }
        }
      });
    }
    EXPECT_TRUE(rt.run_until_quiescent());
    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(received.load(), kRanks * kStreams * 2 * kPerStream);
  }
}

/// Same property with all senders inside one quiescence epoch: a sender
/// fans a whole numbered stream at one destination from a single handler,
/// so the stream crosses the coalescing buffer as one batch.
TEST(MessagePlane, BurstFromOneHandlerStaysOrdered) {
  constexpr RankId kRanks = 8;
  constexpr int kBurst = 32;
  auto last_seen = std::make_shared<std::vector<std::vector<int>>>(
      kRanks, std::vector<int>(kRanks, -1));
  std::atomic<int> violations{0};

  Runtime rt{config(kRanks, 4, /*batch=*/4)};
  rt.post_all([last_seen, &violations](RankContext& ctx) {
    RankId const sender = ctx.rank();
    RankId const dest = (sender + 1) % ctx.num_ranks();
    for (int seq = 0; seq < kBurst; ++seq) {
      ctx.send(dest, 8, [last_seen, &violations, sender,
                         seq](RankContext& at) {
        int& last =
            (*last_seen)[static_cast<std::size_t>(at.rank())]
                        [static_cast<std::size_t>(sender)];
        if (seq != last + 1) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last = seq;
      });
    }
  });
  rt.run_until_quiescent();
  EXPECT_EQ(violations.load(), 0);
}

// ---------------------------------------------------------------------------
// Swap-drain mailbox versus a model FIFO.

/// Envelopes are told apart by their sender field.
Envelope tagged(int tag) { return Envelope{tag, 0, nullptr}; }
std::size_t tag_of(Envelope const& env) {
  return static_cast<std::size_t>(env.from);
}

/// Random interleaving of every producer entry point (push, push_batch,
/// push_consumer) against consume_batch visits with random limits must
/// match a plain deque executing the same schedule.
TEST(MessagePlane, SwapDrainMatchesModelFifo) {
  Mailbox box;
  std::deque<int> model;
  std::vector<std::size_t> out;
  auto const record = [&out](Envelope& env) { out.push_back(tag_of(env)); };
  Rng rng{0x5eedull};
  int next_tag = 0;
  for (int step = 0; step < 2000; ++step) {
    switch (rng.uniform_below(4)) {
    case 0: // single locked push
      box.push(tagged(next_tag));
      model.push_back(next_tag);
      ++next_tag;
      break;
    case 1: { // coalesced batch push
      std::vector<Envelope> batch;
      auto const n = 1 + rng.uniform_below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        batch.push_back(tagged(next_tag));
        model.push_back(next_tag);
        ++next_tag;
      }
      box.push_batch(batch);
      EXPECT_TRUE(batch.empty()); // consumed, capacity retained
      break;
    }
    case 2: // consumer-thread eager push
      box.push_consumer(tagged(next_tag));
      model.push_back(next_tag);
      ++next_tag;
      break;
    default: { // drain with a random batch limit
      auto const limit = rng.uniform_below(8);
      out.clear();
      auto const popped = box.consume_batch(limit, 0, false, nullptr, record);
      auto const expect =
          limit == 0 ? model.size()
                     : std::min<std::size_t>(limit, model.size());
      ASSERT_EQ(popped, expect);
      for (std::size_t const tag : out) {
        ASSERT_FALSE(model.empty());
        EXPECT_EQ(tag, static_cast<std::size_t>(model.front()));
        model.pop_front();
      }
      break;
    }
    }
    ASSERT_EQ(box.size(), model.size());
  }
  out.clear();
  box.consume_batch(0, 0, false, nullptr, record);
  for (std::size_t const tag : out) {
    EXPECT_EQ(tag, static_cast<std::size_t>(model.front()));
    model.pop_front();
  }
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(box.empty());
}

TEST(MessagePlane, ConsumeBatchDeliversInFifoOrderWithLimit) {
  Mailbox box;
  for (int i = 0; i < 10; ++i) {
    box.push_consumer(tagged(i));
  }
  std::vector<std::size_t> seen;
  auto const record = [&seen](Envelope& env) {
    seen.push_back(tag_of(env));
  };
  EXPECT_EQ(box.consume_batch(3, 0, false, nullptr, record), 3u);
  EXPECT_EQ(box.size(), 7u);
  EXPECT_EQ(box.consume_batch(0, 0, false, nullptr, record), 7u);
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(seen[i], i);
  }
  EXPECT_TRUE(box.empty());
}

/// Messages appended by a handler mid-visit (self-sends) must wait for
/// the next visit — exactly the semantics of the staged claim-then-run
/// drain the in-place path replaced.
TEST(MessagePlane, ConsumeBatchDefersSelfSendsToNextVisit) {
  Mailbox box;
  for (int i = 0; i < 4; ++i) {
    box.push_consumer(tagged(i));
  }
  std::vector<std::size_t> first_visit;
  auto const n = box.consume_batch(
      0, 0, false, nullptr, [&box, &first_visit](Envelope& env) {
        first_visit.push_back(tag_of(env));
        box.push_consumer(tagged(static_cast<int>(tag_of(env)) + 100));
      });
  EXPECT_EQ(n, 4u);
  ASSERT_EQ(first_visit.size(), 4u);
  EXPECT_EQ(first_visit.back(), 3u);
  EXPECT_EQ(box.size(), 4u); // the self-sends, still pending

  std::vector<std::size_t> second_visit;
  box.consume_batch(0, 0, false, nullptr, [&second_visit](Envelope& env) {
    second_visit.push_back(tag_of(env));
  });
  ASSERT_EQ(second_visit.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(second_visit[i], 100 + i);
  }
}

TEST(MessagePlane, ConsumeBatchReleasesDueDelayedBeforeHandlers) {
  Mailbox box;
  box.push_delayed(tagged(7), /*due=*/5);
  box.push_consumer(tagged(1));
  std::vector<std::size_t> seen;
  auto const record = [&seen](Envelope& env) {
    seen.push_back(tag_of(env));
  };

  std::size_t released = 0;
  // Visit before the due poll: the delayed message stays parked.
  EXPECT_EQ(box.consume_batch(0, 4, true, &released, record), 1u);
  EXPECT_EQ(released, 0u);
  // Visit at the due poll: released first, then delivered this visit.
  released = 0;
  EXPECT_EQ(box.consume_batch(0, 5, true, &released, record), 1u);
  EXPECT_EQ(released, 1u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 1u);
  EXPECT_EQ(seen[1], 7u);
  EXPECT_TRUE(box.empty());
}

// ---------------------------------------------------------------------------
// Work stealing: results (not ordering) are invariant across workers.

constexpr int kFanout = 2;
constexpr int kTtl = 5;

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

std::uint64_t run_fanout(RankId ranks, int threads) {
  std::atomic<std::uint64_t> executed{0};
  Runtime rt{config(ranks, threads, /*batch=*/4)};
  rt.post_all(
      [&executed](RankContext& ctx) { FanOut{&executed}.run(ctx, kTtl); });
  EXPECT_TRUE(rt.run_until_quiescent());
  return executed.load();
}

TEST(MessagePlane, WorkStealingResultsMatchSequential) {
  constexpr RankId kRanks = 24;
  auto const expected = static_cast<std::uint64_t>(kRanks) *
                        ((std::uint64_t{1} << (kTtl + 1)) - 1);
  EXPECT_EQ(run_fanout(kRanks, 1), expected);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(run_fanout(kRanks, threads), expected)
        << "threads=" << threads;
    // Repeatability at a fixed worker count: totals are exact, every run.
    EXPECT_EQ(run_fanout(kRanks, threads), expected)
        << "threads=" << threads;
  }
}

/// Regression for the shard partitioning: the old driver rounded
/// ranks_per_worker up, leaving the tail worker rank-less in some
/// configurations. Every (P, workers) combination below exercises a
/// remainder; the exact accounting proves every rank is owned, drained,
/// and quiesced.
TEST(MessagePlane, RankPartitioningHandlesIndivisibleCounts) {
  std::vector<std::pair<RankId, int>> const cases{
      {7, 4}, {13, 8}, {9, 2}, {3, 8}, {5, 3}};
  for (auto const& [ranks, threads] : cases) {
    auto const expected = static_cast<std::uint64_t>(ranks) *
                          ((std::uint64_t{1} << (kTtl + 1)) - 1);
    EXPECT_EQ(run_fanout(ranks, threads), expected)
        << "ranks=" << ranks << " threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// A closure that fills the envelope's inline buffer.

/// inline_capacity bytes, pointer first: a move that copied less than the
/// whole buffer would lose words.
struct FullWidth {
  std::array<std::uint64_t, 4>* seen; // indexed by the invoking rank
  std::array<std::uint64_t, 4> words{1, 2, 3, 4};
  void operator()(RankContext& ctx) { seen[ctx.rank()] = words; }
};
static_assert(sizeof(FullWidth) == InlineHandler::inline_capacity);

/// post_all clones once per rank; each copy moves through a mailbox.
void run_full_buffer(int threads) {
  std::array<std::array<std::uint64_t, 4>, 8> seen{};
  auto want = seen;
  want.fill(FullWidth{}.words);
  Runtime rt{config(8, threads)};
  rt.post_all(FullWidth{seen.data()});
  EXPECT_TRUE(rt.run_until_quiescent());
  EXPECT_EQ(seen, want);
}

TEST(MessagePlane, FullBufferClosureSequential) { run_full_buffer(1); }
TEST(MessagePlane, FullBufferClosureThreaded) { run_full_buffer(4); }

// ---------------------------------------------------------------------------
// The real protocol stack end to end.

class Chunk final : public Migratable {
public:
  explicit Chunk(std::size_t bytes) : bytes_{bytes} {}
  [[nodiscard]] std::size_t wire_bytes() const override { return bytes_; }

private:
  std::size_t bytes_;
};

/// The full protocol stack (gossip, transfer and migration) over one
/// runtime must migrate tasks on both drivers. Its closures fit the
/// envelope's inline buffer by construction: InlineHandler refuses any
/// other at compile time.
void run_protocol_stack(int threads) {
  RuntimeConfig cfg;
  cfg.num_ranks = 32;
  cfg.num_threads = threads;
  Runtime rt{cfg};
  ObjectStore store{32};
  lb::StrategyInput input;
  input.tasks.resize(32);
  Rng rng{7};
  for (TaskId i = 0; i < 200; ++i) {
    input.tasks[static_cast<std::size_t>(i % 4)].push_back(
        {i, rng.uniform(0.5, 1.5)});
    store.create(static_cast<RankId>(i % 4), i,
                 std::make_unique<Chunk>(64));
  }

  auto params = lb::LbParams::tempered();
  params.num_trials = 2;
  params.num_iterations = 3;
  params.rounds = 6;
  lb::LbManager manager{rt, "tempered", params};
  auto const report = manager.invoke(input, store);
  EXPECT_GT(report.cost.migration_count, 0u); // migration plane exercised
}

TEST(MessagePlane, ProtocolStackMigratesSequential) {
  run_protocol_stack(1);
}
TEST(MessagePlane, ProtocolStackMigratesThreaded) {
  run_protocol_stack(4);
}

} // namespace
} // namespace tlb::rt
