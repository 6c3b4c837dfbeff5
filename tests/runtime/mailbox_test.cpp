#include "runtime/mailbox.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace tlb::rt {
namespace {

/// Envelopes are told apart by their sender field.
Envelope make(int tag) { return Envelope{tag, 0, nullptr}; }
std::size_t tag_of(Envelope const& env) {
  return static_cast<std::size_t>(env.from);
}

TEST(Mailbox, FifoOrder) {
  Mailbox box;
  for (int i = 0; i < 10; ++i) {
    box.push(make(i));
  }
  std::vector<Envelope> out;
  EXPECT_EQ(box.pop_batch(out, 0), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(tag_of(out[static_cast<std::size_t>(i)]),
              static_cast<std::size_t>(i));
  }
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, BatchLimitRespected) {
  Mailbox box;
  for (int i = 0; i < 10; ++i) {
    box.push(make(i));
  }
  std::vector<Envelope> out;
  EXPECT_EQ(box.pop_batch(out, 3), 3u);
  EXPECT_EQ(box.size(), 7u);
  EXPECT_EQ(tag_of(out[0]), 0u);
  EXPECT_EQ(tag_of(out[2]), 2u);
  // Appends, does not clear.
  EXPECT_EQ(box.pop_batch(out, 3), 3u);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(tag_of(out[3]), 3u);
}

TEST(Mailbox, PopFromEmpty) {
  Mailbox box;
  std::vector<Envelope> out;
  EXPECT_EQ(box.pop_batch(out, 0), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(Mailbox, RandomPopIsPermutation) {
  Mailbox box;
  for (int i = 0; i < 32; ++i) {
    box.push(make(i));
  }
  std::vector<Envelope> out;
  Rng rng{3};
  EXPECT_EQ(box.pop_batch_random(out, 0, rng), 32u);
  std::vector<std::size_t> tags;
  for (auto const& e : out) {
    tags.push_back(tag_of(e));
  }
  auto sorted = tags;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(sorted[i], i);
  }
  EXPECT_NE(tags, sorted); // overwhelmingly likely reordered
}

TEST(Mailbox, RandomPopDeterministicPerSeed) {
  auto run_once = [] {
    Mailbox box;
    for (int i = 0; i < 16; ++i) {
      box.push(make(i));
    }
    std::vector<Envelope> out;
    Rng rng{9};
    box.pop_batch_random(out, 0, rng);
    std::vector<std::size_t> tags;
    for (auto const& e : out) {
      tags.push_back(tag_of(e));
    }
    return tags;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Mailbox, DelayedMessagesHeldUntilDue) {
  Mailbox box;
  box.push_delayed(make(7), 5);
  EXPECT_FALSE(box.empty());
  EXPECT_EQ(box.size(), 1u);
  EXPECT_EQ(box.delayed_size(), 1u);
  std::vector<Envelope> out;
  EXPECT_EQ(box.pop_batch(out, 0), 0u) << "parked messages are not poppable";
  EXPECT_EQ(box.release_due(4), 0u);
  EXPECT_EQ(box.pop_batch(out, 0), 0u);
  EXPECT_EQ(box.release_due(5), 1u);
  EXPECT_EQ(box.delayed_size(), 0u);
  ASSERT_EQ(box.pop_batch(out, 0), 1u);
  EXPECT_EQ(tag_of(out[0]), 7u);
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, ReleaseDueMovesOnlyRipeMessages) {
  Mailbox box;
  for (int i = 0; i < 6; ++i) {
    box.push_delayed(make(i), static_cast<std::uint64_t>(i) * 2);
  }
  EXPECT_EQ(box.release_due(6), 4u); // due 0, 2, 4, 6
  EXPECT_EQ(box.delayed_size(), 2u);
  std::vector<Envelope> out;
  EXPECT_EQ(box.pop_batch(out, 0), 4u);
  EXPECT_EQ(box.release_due(100), 2u);
  EXPECT_EQ(box.pop_batch(out, 0), 2u);
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, DrainAllTakesQueuedAndDelayedAlike) {
  Mailbox box;
  box.push(make(0));
  box.push(make(1));
  box.push_delayed(make(2), 1000);
  box.push_delayed(make(3), 2000);
  box.push_delayed(make(4), 3000);
  std::vector<Envelope> out;
  std::size_t delayed_removed = 0;
  EXPECT_EQ(box.drain_all(out, &delayed_removed), 5u);
  EXPECT_EQ(delayed_removed, 3u);
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(box.delayed_size(), 0u);
}

TEST(Mailbox, ConcurrentProducersAllArrive) {
  Mailbox box;
  constexpr int producers = 4;
  constexpr int per_producer = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < producers; ++t) {
    threads.emplace_back([&box, t] {
      for (int i = 0; i < per_producer; ++i) {
        box.push(make(t * per_producer + i));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(box.size(),
            static_cast<std::size_t>(producers * per_producer));
  std::vector<Envelope> out;
  box.pop_batch(out, 0);
  std::vector<bool> seen(producers * per_producer, false);
  for (auto const& e : out) {
    ASSERT_LT(tag_of(e), seen.size());
    EXPECT_FALSE(seen[tag_of(e)]);
    seen[tag_of(e)] = true;
  }
}

} // namespace
} // namespace tlb::rt
