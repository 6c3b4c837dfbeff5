#pragma once

/// \file metric.hpp
/// The three metric primitives of the telemetry registry: monotonic
/// counters, gauges, and fixed-bucket histograms. All hot-path operations
/// are relaxed atomics — the totals are only read at quiescent points
/// (registry snapshot/export).
///
/// Instances are owned by the Registry and handed out by stable
/// reference; instrument a hot path by capturing the reference once, not
/// by re-looking it up per event.

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "support/assert.hpp"

namespace tlb::obs {

/// Monotonically increasing event count.
class Counter {
public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Overwrite the value. Exists for folding externally maintained
  /// counters (e.g. the runtime's NetworkStats) into a registry at
  /// snapshot time; instrumented hot paths should only ever inc().
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// A value that can move both ways (queue depths, sizes, temperatures).
class Gauge {
public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }

  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Raise the gauge to `v` if above the current value (high-watermark
  /// gauges such as max mailbox depth).
  void update_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. Bucket i counts observations x with
/// bound[i-1] < x <= bound[i] (Prometheus `le` semantics); one implicit
/// overflow bucket catches x > bound.back(). Bounds are fixed at
/// construction — no resizing, no allocation on observe().
class Histogram {
public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_{std::move(bounds)},
        buckets_{std::make_unique<std::atomic<std::uint64_t>[]>(
            bounds_.size() + 1)} {
    TLB_EXPECTS(!bounds_.empty());
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
      TLB_EXPECTS(bounds_[i - 1] < bounds_[i]);
    }
  }

  void observe(double x) {
    // First bucket whose upper bound admits x; linear scan — bucket lists
    // are short by design (fixed, hand-chosen bounds).
    std::size_t i = 0;
    while (i < bounds_.size() && x > bounds_[i]) {
      ++i;
    }
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // C++20 atomic<double>::fetch_add via CAS for portability.
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + x,
                                       std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::vector<double> const& bounds() const { return bounds_; }
  /// bounds().size() + 1: the last entry is the overflow bucket.
  [[nodiscard]] std::size_t num_buckets() const { return bounds_.size() + 1; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    TLB_EXPECTS(i < num_buckets());
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

} // namespace tlb::obs
