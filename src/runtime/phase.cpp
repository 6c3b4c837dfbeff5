#include "runtime/phase.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace tlb::rt {

namespace {

/// Writes `records` to `out` as one entry per task id, sorted by id. The
/// sort is stable, so each sum runs over the task's records in arrival
/// order starting from 0.0. Records arriving in id order (the pic loop
/// walks its colors that way) skip the sort and its temporary buffer.
void fold(std::vector<lb::TaskEntry>& records,
          std::vector<lb::TaskEntry>& out) {
  auto const by_id = [](lb::TaskEntry const& a, lb::TaskEntry const& b) {
    return a.id < b.id;
  };
  if (!std::is_sorted(records.begin(), records.end(), by_id)) {
    std::stable_sort(records.begin(), records.end(), by_id);
  }
  out.clear();
  for (lb::TaskEntry const& record : records) {
    if (out.empty() || out.back().id != record.id) {
      out.push_back({record.id, 0.0});
    }
    out.back().load += record.load;
  }
}

} // namespace

PhaseInstrumentation::PhaseInstrumentation(RankId num_ranks)
    : current_(static_cast<std::size_t>(num_ranks)),
      previous_(static_cast<std::size_t>(num_ranks)) {
  TLB_EXPECTS(num_ranks > 0);
}

void PhaseInstrumentation::start_phase() {
  for (std::size_t r = 0; r < current_.size(); ++r) {
    fold(current_[r], previous_[r]);
    current_[r].clear();
  }
  ++phase_;
}

void PhaseInstrumentation::record(RankId rank, TaskId task, LoadType load) {
  TLB_EXPECTS(rank >= 0 &&
              static_cast<std::size_t>(rank) < current_.size());
  TLB_EXPECTS(std::isfinite(load) && load >= 0.0);
  current_[static_cast<std::size_t>(rank)].push_back({task, load});
}

std::vector<lb::TaskEntry>
PhaseInstrumentation::previous_tasks(RankId rank) const {
  TLB_EXPECTS(rank >= 0 &&
              static_cast<std::size_t>(rank) < previous_.size());
  return previous_[static_cast<std::size_t>(rank)];
}

std::vector<LoadType> PhaseInstrumentation::previous_rank_loads() const {
  std::vector<LoadType> out(previous_.size(), 0.0);
  for (std::size_t r = 0; r < previous_.size(); ++r) {
    for (lb::TaskEntry const& task : previous_[r]) {
      out[r] += task.load;
    }
  }
  return out;
}

std::vector<lb::TaskEntry>
PhaseInstrumentation::current_tasks(RankId rank) const {
  TLB_EXPECTS(rank >= 0 &&
              static_cast<std::size_t>(rank) < current_.size());
  auto records = current_[static_cast<std::size_t>(rank)];
  std::vector<lb::TaskEntry> out;
  fold(records, out);
  return out;
}

} // namespace tlb::rt
