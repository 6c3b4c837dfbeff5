#include "obs/registry.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json.hpp"
#include "support/assert.hpp"

namespace tlb::obs {

void Registry::publish(MetricSample sample) {
  std::sort(sample.labels.begin(), sample.labels.end(),
            [](Label const& a, Label const& b) { return a.key < b.key; });
  SpinLockGuard lock{lock_};
  for (MetricSample& stored : samples_) {
    if (stored.name == sample.name && stored.labels == sample.labels) {
      TLB_EXPECTS(stored.kind == sample.kind);
      stored = std::move(sample);
      return;
    }
  }
  samples_.push_back(std::move(sample));
}

void Registry::set_counter(std::string_view name, std::uint64_t value,
                           Labels labels) {
  MetricSample sample;
  sample.name = std::string{name};
  sample.labels = std::move(labels);
  sample.kind = MetricKind::counter;
  sample.counter_value = value;
  publish(std::move(sample));
}

void Registry::set_gauge(std::string_view name, std::int64_t value,
                         Labels labels) {
  MetricSample sample;
  sample.name = std::string{name};
  sample.labels = std::move(labels);
  sample.kind = MetricKind::gauge;
  sample.gauge_value = value;
  publish(std::move(sample));
}

std::vector<MetricSample> Registry::snapshot() const {
  SpinLockGuard lock{lock_};
  return samples_;
}

void Registry::clear() {
  SpinLockGuard lock{lock_};
  samples_.clear();
}

void sort_samples(std::vector<MetricSample>& samples) {
  std::sort(samples.begin(), samples.end(),
            [](MetricSample const& a, MetricSample const& b) {
              if (a.name != b.name) {
                return a.name < b.name;
              }
              return std::lexicographical_compare(
                  a.labels.begin(), a.labels.end(), b.labels.begin(),
                  b.labels.end(), [](Label const& x, Label const& y) {
                    if (x.key != y.key) {
                      return x.key < y.key;
                    }
                    return x.value < y.value;
                  });
            });
}

void write_metric_samples_json(JsonWriter& w,
                               std::vector<MetricSample> const& samples) {
  for (MetricSample const& s : samples) {
    w.begin_object();
    w.kv("name", s.name);
    w.key("labels").begin_object();
    for (Label const& l : s.labels) {
      w.kv(l.key, l.value);
    }
    w.end_object();
    if (s.kind == MetricKind::counter) {
      w.kv("kind", "counter");
      w.kv("value", static_cast<unsigned long long>(s.counter_value));
    } else {
      w.kv("kind", "gauge");
      w.kv("value", static_cast<long long>(s.gauge_value));
    }
    w.end_object();
  }
}

void Registry::write_json(std::ostream& os) const {
  auto samples = snapshot();
  sort_samples(samples);
  JsonWriter w{os};
  w.begin_object();
  w.key("metrics").begin_array();
  write_metric_samples_json(w, samples);
  w.end_array();
  w.end_object();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

} // namespace tlb::obs
