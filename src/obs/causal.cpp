#include "obs/causal.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <unordered_map>

#include "obs/json.hpp"
#include "support/assert.hpp"

namespace tlb::obs {

std::uint32_t StampTable::append(Entry const& entry) {
  SpinLockGuard lock{lock_};
  // Slots are 32-bit: one quiescence epoch would need 2^32 stamped sends.
  TLB_ASSERT(entries_.size() < std::numeric_limits<std::uint32_t>::max());
  entries_.push_back(entry);
  return static_cast<std::uint32_t>(entries_.size());
}

StampTable::Entry StampTable::at(std::uint32_t slot) const {
  if (slot == 0) {
    return Entry{};
  }
  SpinLockGuard lock{lock_};
  TLB_ASSERT(slot <= entries_.size());
  return entries_[slot - 1];
}

void StampTable::clear() {
  SpinLockGuard lock{lock_};
  entries_.clear();
}

CausalLog& CausalLog::instance() {
  static CausalLog log;
  return log;
}

void write_causal_event(JsonWriter& w, CausalEvent const& event) {
  w.begin_object();
  w.kv("id", static_cast<unsigned long long>(event.stamp.id));
  w.kv("parent", static_cast<unsigned long long>(event.stamp.parent));
  w.kv("origin", static_cast<long long>(event.stamp.origin));
  w.kv("step", static_cast<unsigned long long>(event.stamp.step));
  w.kv("hop", static_cast<unsigned long long>(event.stamp.hop));
  w.kv("from", static_cast<long long>(event.from));
  w.kv("to", static_cast<long long>(event.to));
  w.kv("kind", event.kind);
  w.kv("bytes", static_cast<unsigned long long>(event.bytes));
  w.kv("ts_us", static_cast<long long>(event.ts_us));
  w.kv("dur_us", static_cast<long long>(event.dur_us));
  w.end_object();
}

void CausalLog::write_json(std::ostream& os) const {
  // Compact like the Chrome trace: one object per delivery adds up.
  JsonWriter w{os, 0};
  w.begin_object();
  w.kv("step", static_cast<unsigned long long>(step()));
  w.kv("dropped", static_cast<unsigned long long>(dropped()));
  w.key("events").begin_array();
  for_each([&w](std::size_t, CausalEvent const& e) {
    write_causal_event(w, e);
  });
  w.end_array();
  w.end_object();
}

namespace {

/// Fold `us` and one hop into the attribution slot for `key`.
void attribute(std::vector<PathAttribution>& out, std::string key,
               std::int64_t us) {
  for (PathAttribution& a : out) {
    if (a.key == key) {
      a.us += us;
      ++a.hops;
      return;
    }
  }
  out.push_back(PathAttribution{std::move(key), us, 1});
}

void sort_attribution(std::vector<PathAttribution>& out) {
  std::sort(out.begin(), out.end(),
            [](PathAttribution const& a, PathAttribution const& b) {
              if (a.us != b.us) {
                return a.us > b.us;
              }
              return a.key < b.key;
            });
}

} // namespace

CriticalPath compute_critical_path(std::vector<CausalEvent> const& events) {
  CriticalPath path;
  // First occurrence wins: a fault-plane duplicate delivers the same id
  // twice, and the first delivery is the one later hops chained from.
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(events.size());
  std::size_t terminal = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    CausalEvent const& e = events[i];
    if (e.stamp.id == 0) {
      continue;
    }
    by_id.emplace(e.stamp.id, i); // keeps the first occurrence
    if (terminal == events.size() ||
        e.stamp.hop > events[terminal].stamp.hop ||
        (e.stamp.hop == events[terminal].stamp.hop &&
         e.stamp.id > events[terminal].stamp.id)) {
      terminal = i;
    }
  }
  if (terminal == events.size()) {
    return path;
  }
  // Walk terminal -> root through parent ids. The hop count bounds the
  // walk, so a malformed log (parent cycles from corrupt input) cannot
  // loop forever.
  std::size_t cursor = terminal;
  for (std::size_t guard = 0;
       guard <= static_cast<std::size_t>(events[terminal].stamp.hop);
       ++guard) {
    path.chain.push_back(events[cursor]);
    auto const parent = events[cursor].stamp.parent;
    if (parent == 0) {
      break;
    }
    auto const it = by_id.find(parent);
    if (it == by_id.end()) {
      break; // parent dropped from the ring or never delivered
    }
    cursor = it->second;
  }
  std::reverse(path.chain.begin(), path.chain.end());
  for (CausalEvent const& e : path.chain) {
    path.handler_us += e.dur_us;
    attribute(path.by_rank, "rank " + std::to_string(e.to), e.dur_us);
    attribute(path.by_kind, e.kind, e.dur_us);
  }
  sort_attribution(path.by_rank);
  sort_attribution(path.by_kind);
  return path;
}

} // namespace tlb::obs
