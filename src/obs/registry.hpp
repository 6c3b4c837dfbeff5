#pragma once

/// \file registry.hpp
/// The metrics registry: named metric families with labels (per-rank,
/// per-strategy, per-category, ...) holding values published at quiescent
/// points, exportable as JSON.
///
/// Nothing counts into the registry. A producer keeps its own plain
/// counter block while it runs (the runtime's NetworkStats) and, once the
/// run has quiesced, publishes each value with set_counter()/set_gauge(),
/// which replace whatever was stored under that identity. Publishing is
/// rare and never on a hot path, so one spin lock guards the whole store;
/// it is there because a flight-record dump may read the store from
/// whichever thread tripped it.
///
/// Identity is (name, labels): the same name with different label sets
/// yields distinct time series (a "family"). Publishing an existing
/// identity as the other metric kind is a contract violation.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "support/spinlock.hpp"
#include "support/thread_annotations.hpp"

namespace tlb::obs {

/// One metric label (dimension), e.g. {"category", "gossip"}.
struct Label {
  std::string key;
  std::string value;

  friend bool operator==(Label const&, Label const&) = default;
};

using Labels = std::vector<Label>;

enum class MetricKind : std::uint8_t { counter, gauge };

class JsonWriter;

/// One published metric, as stored and as read by Registry::snapshot().
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::counter;
  std::uint64_t counter_value = 0; ///< kind == counter
  std::int64_t gauge_value = 0;    ///< kind == gauge
};

class Registry {
public:
  Registry() = default;
  Registry(Registry const&) = delete;
  Registry& operator=(Registry const&) = delete;

  /// Store `value` under (name, labels), replacing an earlier value of
  /// that identity. Labels are canonicalized (sorted by key), so the same
  /// set in any order names the same metric.
  void set_counter(std::string_view name, std::uint64_t value,
                   Labels labels = {}) TLB_EXCLUDES(lock_);
  void set_gauge(std::string_view name, std::int64_t value,
                 Labels labels = {}) TLB_EXCLUDES(lock_);

  /// Copy of every stored metric, in first-publication order.
  [[nodiscard]] std::vector<MetricSample> snapshot() const
      TLB_EXCLUDES(lock_);

  /// Export the snapshot as a JSON document:
  ///   {"metrics": [{"name": ..., "labels": {...}, "kind": ...,
  ///                 "value": ...}, ...]}
  /// Families and label sets are sorted (see sort_samples), so the output
  /// is byte-stable across runs regardless of publication order.
  void write_json(std::ostream& os) const;

  /// Drop every stored metric (tests and between-run resets).
  void clear() TLB_EXCLUDES(lock_);

private:
  void publish(MetricSample sample) TLB_EXCLUDES(lock_);

  mutable SpinLock lock_;
  std::vector<MetricSample> samples_ TLB_GUARDED_BY(lock_);
};

/// Sort samples into the canonical export order — by name, then by the
/// (already key-canonicalized) label vector — so exports and golden
/// files diff stably no matter which code path published first.
void sort_samples(std::vector<MetricSample>& samples);

/// Serialize `samples` as a JSON array of metric objects through an
/// already-open writer scope (the body of write_json's "metrics" array;
/// shared with the flight recorder's postmortem document). Does not sort.
void write_metric_samples_json(JsonWriter& w,
                               std::vector<MetricSample> const& samples);

/// The process-wide default registry (what the runtime publishes to in
/// the examples and before a flight-record dump). Individual components
/// may still own private registries.
[[nodiscard]] Registry& registry();

} // namespace tlb::obs
