#include "runtime/mailbox.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace tlb::rt {
namespace {

/// Envelopes are told apart by their sender field.
Envelope make(int tag) { return Envelope{tag, 0, nullptr}; }
std::size_t tag_of(Envelope const& env) {
  return static_cast<std::size_t>(env.from);
}

/// One consumer visit: up to `max_items` (0 = all) tags in delivery order,
/// appended to `out`; releases delayed messages due at `now` when
/// `release`. Returns the number delivered.
std::size_t visit(Mailbox& box, std::vector<std::size_t>& out,
                  std::size_t max_items, bool release = false,
                  std::uint64_t now = 0, std::size_t* released = nullptr) {
  return box.consume_batch(max_items, now, release, released,
                           [&out](Envelope& env) {
                             out.push_back(tag_of(env));
                           });
}

TEST(Mailbox, FifoOrder) {
  Mailbox box;
  for (int i = 0; i < 10; ++i) {
    box.push(make(i));
  }
  std::vector<std::size_t> out;
  EXPECT_EQ(visit(box, out, 0), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], i);
  }
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, BatchLimitRespected) {
  Mailbox box;
  for (int i = 0; i < 10; ++i) {
    box.push(make(i));
  }
  std::vector<std::size_t> out;
  EXPECT_EQ(visit(box, out, 3), 3u);
  EXPECT_EQ(box.size(), 7u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[2], 2u);
  EXPECT_EQ(visit(box, out, 3), 3u);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[3], 3u);
}

TEST(Mailbox, PopFromEmpty) {
  Mailbox box;
  std::vector<std::size_t> out;
  EXPECT_EQ(visit(box, out, 0), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(Mailbox, DelayedMessagesHeldUntilDue) {
  Mailbox box;
  box.push_delayed(make(7), 5);
  EXPECT_FALSE(box.empty());
  EXPECT_EQ(box.size(), 1u);
  std::vector<std::size_t> out;
  EXPECT_EQ(visit(box, out, 0), 0u) << "parked messages are not deliverable";
  std::size_t released = 0;
  EXPECT_EQ(visit(box, out, 0, true, 4, &released), 0u);
  EXPECT_EQ(released, 0u);
  EXPECT_EQ(box.size(), 1u);
  ASSERT_EQ(visit(box, out, 0, true, 5, &released), 1u);
  EXPECT_EQ(released, 1u);
  EXPECT_EQ(out[0], 7u);
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, ReleaseDueMovesOnlyRipeMessages) {
  Mailbox box;
  for (int i = 0; i < 6; ++i) {
    box.push_delayed(make(i), static_cast<std::uint64_t>(i) * 2);
  }
  std::vector<std::size_t> out;
  std::size_t released = 0;
  EXPECT_EQ(visit(box, out, 0, true, 6, &released), 4u); // due 0, 2, 4, 6
  EXPECT_EQ(released, 4u);
  EXPECT_EQ(box.size(), 2u);
  EXPECT_EQ(visit(box, out, 0, true, 100, &released), 2u);
  EXPECT_EQ(released, 2u);
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
  std::vector<std::size_t> out;
  visit(box, out, 0);
  std::vector<bool> seen(producers * per_producer, false);
  for (std::size_t const tag : out) {
    ASSERT_LT(tag, seen.size());
    EXPECT_FALSE(seen[tag]);
    seen[tag] = true;
  }
}

} // namespace
} // namespace tlb::rt
