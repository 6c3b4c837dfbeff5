#pragma once

/// \file thread_log.hpp
/// A bounded per-thread event log: the storage under the Chrome-trace
/// Tracer and the CausalLog. Each recording thread appends to a buffer of
/// its own, registered on its first record and never removed, so
/// recording threads do not contend. A buffer's spin lock is taken by its
/// owning thread and, at quiescent points, by a reader. A buffer holds at
/// most `Capacity` events; once full it drops the newest event and counts
/// it.
///
/// Each instantiation serves one process-wide log: a thread caches its
/// buffer in a thread_local of the instantiation, so two live logs of the
/// same type would share it.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/spinlock.hpp"
#include "support/thread_annotations.hpp"

namespace tlb::obs {

template <typename Event, std::size_t Capacity> class ThreadLog {
public:
  /// Buffer capacity per thread (events). Exposed for tests.
  static constexpr std::size_t max_events_per_thread = Capacity;

  ThreadLog() = default;
  ThreadLog(ThreadLog const&) = delete;
  ThreadLog& operator=(ThreadLog const&) = delete;

  void record(Event const& event) TLB_EXCLUDES(mutex_) {
    Buffer& buffer = local_buffer();
    SpinLockGuard lock{buffer.mutex};
    if (buffer.events.size() >= Capacity) {
      ++buffer.dropped;
      return;
    }
    buffer.events.push_back(event);
  }

  /// Call fn(buffer_index, event) for every recorded event, buffers in
  /// registration order (the index is stable for a thread's lifetime).
  /// fn runs under the log's locks, so it must not record into this log.
  /// Call at quiescent points: a thread recording meanwhile serializes on
  /// its buffer's lock, and the walk then reflects a mid-flight cut.
  template <typename Fn> void for_each(Fn&& fn) const TLB_EXCLUDES(mutex_) {
    SpinLockGuard lock{mutex_};
    for (std::size_t i = 0; i < buffers_.size(); ++i) {
      Buffer& buffer = *buffers_[i];
      SpinLockGuard buffer_lock{buffer.mutex};
      for (Event const& event : buffer.events) {
        fn(i, event);
      }
    }
  }

  /// Every recorded event, buffers concatenated in registration order.
  [[nodiscard]] std::vector<Event> snapshot() const {
    std::vector<Event> out;
    for_each([&out](std::size_t, Event const& event) {
      out.push_back(event);
    });
    return out;
  }

  /// Drop every recorded event and every drop count.
  void clear() TLB_EXCLUDES(mutex_) {
    SpinLockGuard lock{mutex_};
    for (auto const& buffer : buffers_) {
      SpinLockGuard buffer_lock{buffer->mutex};
      buffer->events.clear();
      buffer->dropped = 0;
    }
  }

  [[nodiscard]] std::size_t event_count() const TLB_EXCLUDES(mutex_) {
    SpinLockGuard lock{mutex_};
    std::size_t n = 0;
    for (auto const& buffer : buffers_) {
      SpinLockGuard buffer_lock{buffer->mutex};
      n += buffer->events.size();
    }
    return n;
  }

  /// Events lost to a full buffer since the last clear().
  [[nodiscard]] std::uint64_t dropped() const TLB_EXCLUDES(mutex_) {
    SpinLockGuard lock{mutex_};
    std::uint64_t n = 0;
    for (auto const& buffer : buffers_) {
      SpinLockGuard buffer_lock{buffer->mutex};
      n += buffer->dropped;
    }
    return n;
  }

private:
  struct Buffer {
    SpinLock mutex;
    std::vector<Event> events TLB_GUARDED_BY(mutex);
    std::uint64_t dropped TLB_GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] Buffer& local_buffer() TLB_EXCLUDES(mutex_) {
    thread_local Buffer* cached = nullptr;
    if (cached == nullptr) {
      auto buffer = std::make_unique<Buffer>();
      buffer->events.reserve(1024);
      SpinLockGuard lock{mutex_};
      buffers_.push_back(std::move(buffer));
      cached = buffers_.back().get();
    }
    return *cached;
  }

  mutable SpinLock mutex_; ///< guards buffers_ (registration + reads)
  std::vector<std::unique_ptr<Buffer>> buffers_ TLB_GUARDED_BY(mutex_);
};

} // namespace tlb::obs
