#pragma once

/// \file lpt.hpp
/// The one LPT (longest processing time first) list scheduler, shared by
/// GreedyLB's centralized placement, HierLB's within-group placement and
/// lb::greedy_imbalance, the quality floor the tests and examples compare
/// against. LPT is a 4/3-approximation of the optimal makespan.

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace tlb::lb {

/// Sort `tasks` heaviest first (equal loads by ascending id), then walk
/// them in that order, putting each on the least-loaded of `bins` bins
/// that start empty (equal loads to the lowest bin) and reporting it as
/// `place(task, bin)`. A task is anything with an `entry` TaskEntry.
template <class Task, class Place>
void lpt_schedule(std::vector<Task>& tasks, RankId bins, Place const& place) {
  std::sort(tasks.begin(), tasks.end(), [](Task const& a, Task const& b) {
    if (a.entry.load != b.entry.load) {
      return a.entry.load > b.entry.load;
    }
    return a.entry.id < b.entry.id;
  });
  using Bin = std::pair<LoadType, RankId>;
  std::priority_queue<Bin, std::vector<Bin>, std::greater<>> heap;
  for (RankId b = 0; b < bins; ++b) {
    heap.emplace(0.0, b);
  }
  for (Task& t : tasks) {
    auto const [load, bin] = heap.top();
    heap.pop();
    heap.emplace(load + t.entry.load, bin);
    place(t, bin);
  }
}

} // namespace tlb::lb
