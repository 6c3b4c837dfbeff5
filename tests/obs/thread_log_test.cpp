/// \file thread_log_test.cpp
/// obs::ThreadLog, the bounded per-thread event log under the Tracer and
/// the CausalLog. Every record here happens on a thread started for it: a
/// thread caches its buffer per ThreadLog type, so a thread that recorded
/// into one test's log must not record into the next test's.

#include "obs/thread_log.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

namespace tlb::obs {
namespace {

struct Tick {
  int thread = 0;
  int seq = 0;
};

using SmallLog = ThreadLog<Tick, 4>;
using WideLog = ThreadLog<Tick, 1024>;

/// Record ticks {thread, 0}, ..., {thread, count - 1} into `log` from a
/// new thread, and wait for it.
template <typename Log> void record_on_new_thread(Log& log, int thread,
                                                  int count) {
  std::thread worker{[&log, thread, count] {
    for (int i = 0; i < count; ++i) {
      log.record(Tick{thread, i});
    }
  }};
  worker.join();
}

/// (buffer index, thread, seq) of every event, in for_each order.
struct Seen {
  std::size_t index = 0;
  int thread = 0;
  int seq = 0;
  friend bool operator==(Seen const&, Seen const&) = default;
};

template <typename Log> std::vector<Seen> walk(Log const& log) {
  std::vector<Seen> seen;
  log.for_each([&seen](std::size_t index, Tick const& t) {
    seen.push_back(Seen{index, t.thread, t.seq});
  });
  return seen;
}

TEST(ThreadLog, EmptyLogHasNoEventsAndNoDrops) {
  SmallLog log;
  EXPECT_EQ(log.event_count(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
  EXPECT_TRUE(walk(log).empty());
}

TEST(ThreadLog, RecordsKeepTheirOrderWithinAThread) {
  WideLog log;
  record_on_new_thread(log, 0, 100);
  auto const events = log.snapshot();
  ASSERT_EQ(events.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].seq, i);
  }
}

TEST(ThreadLog, ForEachNumbersBuffersInRegistrationOrder) {
  // The index is what the Chrome trace writes as `tid`.
  WideLog log;
  record_on_new_thread(log, 7, 2);
  record_on_new_thread(log, 3, 3);
  std::vector<Seen> const expected = {
      {0, 7, 0}, {0, 7, 1}, {1, 3, 0}, {1, 3, 1}, {1, 3, 2}};
  EXPECT_EQ(walk(log), expected);
}

TEST(ThreadLog, SnapshotConcatenatesBuffersNotRecordTimes) {
  // A registers first, B records while A waits, then A records again:
  // the snapshot holds all of A's events before B's.
  WideLog log;
  std::latch a_registered{1};
  std::latch b_done{1};
  std::thread a{[&] {
    log.record(Tick{0, 0});
    a_registered.count_down();
    b_done.wait();
    log.record(Tick{0, 1});
  }};
  a_registered.wait();
  record_on_new_thread(log, 1, 1);
  b_done.count_down();
  a.join();

  auto const events = log.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].thread, 0);
  EXPECT_EQ(events[1].thread, 0);
  EXPECT_EQ(events[1].seq, 1);
  EXPECT_EQ(events[2].thread, 1);
}

TEST(ThreadLog, FullBufferDropsTheNewestAndCountsIt) {
  SmallLog log;
  record_on_new_thread(log, 0, 6);
  auto const events = log.snapshot();
  ASSERT_EQ(events.size(), SmallLog::max_events_per_thread);
  EXPECT_EQ(events.front().seq, 0);
  EXPECT_EQ(events.back().seq, 3);
  EXPECT_EQ(log.dropped(), 2u);
}

TEST(ThreadLog, CapacityAppliesPerThread) {
  SmallLog log;
  record_on_new_thread(log, 0, 5);
  record_on_new_thread(log, 1, 4);
  record_on_new_thread(log, 2, 7);
  EXPECT_EQ(log.event_count(), 12u);
  EXPECT_EQ(log.dropped(), 4u);
}

TEST(ThreadLog, ClearDropsEventsAndDropCounts) {
  SmallLog log;
  record_on_new_thread(log, 0, 6);
  ASSERT_EQ(log.dropped(), 2u);
  log.clear();
  EXPECT_EQ(log.event_count(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
}

TEST(ThreadLog, ClearKeepsEveryBufferAndItsIndex) {
  // A thread alive across clear() keeps its index and gets its whole
  // capacity back; a thread that registers later takes the next index.
  SmallLog log;
  std::latch a_full{1};
  std::latch cleared{1};
  std::thread a{[&] {
    for (int i = 0; i < 5; ++i) {
      log.record(Tick{0, i});
    }
    a_full.count_down();
    cleared.wait();
    for (int i = 10; i < 14; ++i) {
      log.record(Tick{0, i});
    }
  }};
  a_full.wait();
  record_on_new_thread(log, 1, 1);
  log.clear();
  cleared.count_down();
  a.join();
  record_on_new_thread(log, 2, 1);

  std::vector<Seen> const expected = {
      {0, 0, 10}, {0, 0, 11}, {0, 0, 12}, {0, 0, 13}, {2, 2, 0}};
  EXPECT_EQ(walk(log), expected);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(ThreadLog, ConcurrentRecordersLoseNothingBelowCapacity) {
  WideLog log;
  constexpr int num_threads = 4;
  constexpr int per_thread = 1000;
  static_assert(per_thread <= static_cast<int>(WideLog::max_events_per_thread));
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < per_thread; ++i) {
        log.record(Tick{t, i});
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(log.event_count(),
            static_cast<std::size_t>(num_threads) * per_thread);
  EXPECT_EQ(log.dropped(), 0u);

  // One buffer per thread, each holding that thread's ticks in order.
  std::vector<int> thread_of(num_threads, -1);
  std::vector<int> next_seq(num_threads, 0);
  for (Seen const& s : walk(log)) {
    ASSERT_LT(s.index, static_cast<std::size_t>(num_threads));
    if (thread_of[s.index] < 0) {
      thread_of[s.index] = s.thread;
    }
    EXPECT_EQ(s.thread, thread_of[s.index]);
    EXPECT_EQ(s.seq, next_seq[s.index]++);
  }
  for (int const n : next_seq) {
    EXPECT_EQ(n, per_thread);
  }
}

TEST(ThreadLog, ReadsWhileThreadsRecordSeeAPrefixOfEachBuffer) {
  // A read that races recording threads serializes on each buffer's lock:
  // it sees every buffer as an in-order prefix of what its thread records.
  WideLog log;
  constexpr int num_threads = 3;
  constexpr int per_thread = 1000;
  std::atomic<int> running{num_threads};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&log, &running, t] {
      for (int i = 0; i < per_thread; ++i) {
        log.record(Tick{t, i});
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::size_t last_count = 0;
  bool prefixes = true;
  bool growing = true;
  bool done = false;
  while (!done && prefixes) {
    done = running.load(std::memory_order_acquire) == 0;
    std::vector<int> next_seq(num_threads, 0);
    std::size_t count = 0;
    for (Seen const& s : walk(log)) {
      prefixes = prefixes &&
                 s.index < static_cast<std::size_t>(num_threads) &&
                 s.seq == next_seq[s.index]++;
      ++count;
    }
    growing = growing && count >= last_count;
    last_count = count;
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_TRUE(prefixes);
  EXPECT_TRUE(growing);
  EXPECT_EQ(last_count, static_cast<std::size_t>(num_threads) * per_thread);
}

} // namespace
} // namespace tlb::obs
