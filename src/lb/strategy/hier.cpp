#include "lb/strategy/hier.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "lb/lpt.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace tlb::lb {

namespace {

struct PlacedTask {
  TaskEntry entry;
  RankId home = invalid_rank;    ///< where the task physically is
  RankId current = invalid_rank; ///< placement as the algorithm refines it

  friend bool operator==(PlacedTask const&, PlacedTask const&) = default;
};

using MinHeap =
    std::priority_queue<std::pair<LoadType, RankId>,
                        std::vector<std::pair<LoadType, RankId>>,
                        std::greater<>>;

bool heavier_first(PlacedTask const& a, PlacedTask const& b) {
  if (a.entry.load != b.entry.load) {
    return a.entry.load > b.entry.load;
  }
  return a.entry.id < b.entry.id;
}

/// Protocol state shared across handlers. Each slot is only mutated by
/// handlers on the rank that owns it (leaders own their group slots, the
/// root owns the root slot), which the runtime serializes.
struct Shared {
  RankId p = 0;
  RankId group_size = 0;
  RankId num_groups = 0;

  // --- leader state (indexed by group) ---
  struct GroupState {
    std::vector<PlacedTask> tasks; ///< gathered from members
    RankId pending_members = 0;
    LoadType load = 0.0;           ///< after within-group LPT
    std::vector<LoadType> member_loads;
  };
  std::vector<GroupState> groups;

  // --- root state ---
  struct RootState {
    RankId pending_groups = 0;
    std::vector<LoadType> group_loads;
    std::vector<double> group_targets;
    std::vector<std::vector<PlacedTask>> exports; ///< per source group
  } root;

  // --- results: final placements, appended by leaders ---
  std::vector<std::vector<PlacedTask>> placed; ///< per group

  [[nodiscard]] RankId leader_of_group(RankId g) const {
    return g * group_size;
  }
  [[nodiscard]] RankId group_of_rank(RankId r) const {
    return r / group_size;
  }
  [[nodiscard]] RankId group_lo(RankId g) const { return g * group_size; }
  [[nodiscard]] RankId group_hi(RankId g) const {
    return std::min<RankId>(p, (g + 1) * group_size);
  }
};

/// Within-group LPT at the leader; fills GroupState::load/member_loads and
/// updates current placements.
void leader_lpt(Shared& sh, RankId g) {
  auto& gs = sh.groups[static_cast<std::size_t>(g)];
  RankId const lo = sh.group_lo(g);
  RankId const members = sh.group_hi(g) - lo;
  gs.member_loads.assign(static_cast<std::size_t>(members), 0.0);
  gs.load = 0.0;
  lpt_schedule(gs.tasks, members, [&](PlacedTask& t, RankId member) {
    t.current = lo + member;
    gs.member_loads[static_cast<std::size_t>(member)] += t.entry.load;
    gs.load += t.entry.load;
  });
}

/// A leader's report to the root: its group's load after peeling off the
/// excess, and the excess tasks themselves.
struct GroupReport {
  LoadType load = 0.0;
  std::vector<PlacedTask> exported;
};

/// Root: compute per-group targets, pull excess tasks from overloaded
/// groups' reports, assign them to underloaded groups.
struct RootDecision {
  /// incoming[g]: tasks group g must absorb.
  std::vector<std::vector<PlacedTask>> incoming;
};

RootDecision root_decide(Shared& sh) {
  auto& rs = sh.root;
  RootDecision decision;
  decision.incoming.resize(static_cast<std::size_t>(sh.num_groups));

  // Exported tasks arrive pre-peeled from overloaded groups; place them
  // heaviest-first onto the group with the most slack below target.
  std::vector<PlacedTask> pool;
  for (auto& exported : rs.exports) {
    pool.insert(pool.end(), exported.begin(), exported.end());
  }
  std::sort(pool.begin(), pool.end(), heavier_first);

  MinHeap group_heap;
  for (RankId g = 0; g < sh.num_groups; ++g) {
    auto const gi = static_cast<std::size_t>(g);
    group_heap.emplace(rs.group_loads[gi] - rs.group_targets[gi], g);
  }
  for (PlacedTask& t : pool) {
    auto [slack, g] = group_heap.top();
    group_heap.pop();
    group_heap.emplace(slack + t.entry.load, g);
    decision.incoming[static_cast<std::size_t>(g)].push_back(t);
  }
  return decision;
}

} // namespace

StrategyResult HierStrategy::balance(rt::Runtime& rt,
                                     StrategyInput const& input,
                                     LbParams const& /*params*/) {
  auto const p = input.num_ranks();
  TLB_EXPECTS(p == rt.num_ranks());
  auto const stats_before = rt.stats();

  auto sh = std::make_shared<Shared>();
  sh->p = p;
  sh->group_size = static_cast<RankId>(std::max(
      1.0, std::ceil(std::sqrt(static_cast<double>(p)))));
  sh->num_groups = (p + sh->group_size - 1) / sh->group_size;
  sh->groups.resize(static_cast<std::size_t>(sh->num_groups));
  sh->placed.resize(static_cast<std::size_t>(sh->num_groups));
  sh->root.pending_groups = sh->num_groups;
  sh->root.group_loads.assign(static_cast<std::size_t>(sh->num_groups),
                              0.0);
  sh->root.group_targets.assign(static_cast<std::size_t>(sh->num_groups),
                                0.0);
  sh->root.exports.resize(static_cast<std::size_t>(sh->num_groups));
  for (RankId g = 0; g < sh->num_groups; ++g) {
    sh->groups[static_cast<std::size_t>(g)].pending_members =
        sh->group_hi(g) - sh->group_lo(g);
  }

  double total = 0.0;
  for (auto const& tasks : input.tasks) {
    for (auto const& t : tasks) {
      total += t.load;
    }
  }
  double const avg_rank = p > 0 ? total / static_cast<double>(p) : 0.0;
  for (RankId g = 0; g < sh->num_groups; ++g) {
    sh->root.group_targets[static_cast<std::size_t>(g)] =
        avg_rank * static_cast<double>(sh->group_hi(g) - sh->group_lo(g));
  }

  // ---- Level 1 (messages): members gather task lists at their leader;
  // the last arrival triggers the leader's LPT and its report upward. ----
  auto* input_ptr = &input;
  rt.post_all([sh, input_ptr](rt::RankContext& ctx) {
    auto const r = ctx.rank();
    auto const g = sh->group_of_rank(r);
    auto const& mine = input_ptr->tasks[static_cast<std::size_t>(r)];
    // Payloads ride behind shared_ptrs so the closures fit the envelope.
    auto payload = std::make_shared<std::vector<PlacedTask>>();
    payload->reserve(mine.size());
    for (TaskEntry const& t : mine) {
      payload->push_back(PlacedTask{t, r, r});
    }
    std::size_t const bytes = payload->size() * sizeof(PlacedTask);
    ctx.send(sh->leader_of_group(g), bytes,
             [sh, g,
              payload = std::shared_ptr<std::vector<PlacedTask> const>{
                  std::move(payload)}](rt::RankContext& leader) {
               auto& gs = sh->groups[static_cast<std::size_t>(g)];
               gs.tasks.insert(gs.tasks.end(), payload->begin(),
                               payload->end());
               if (--gs.pending_members > 0) {
                 return;
               }
               // All members reported: balance within the group, then
               // report (load, excess tasks) to the root.
               leader_lpt(*sh, g);
               auto const gi = static_cast<std::size_t>(g);
               double const target = sh->root.group_targets[gi];

               // Peel excess heaviest-first off the group's tasks while
               // above target.
               auto report = std::make_shared<GroupReport>();
               std::vector<PlacedTask>& exported = report->exported;
               if (gs.load > target) {
                 std::vector<PlacedTask*> by_load;
                 for (PlacedTask& t : gs.tasks) {
                   by_load.push_back(&t);
                 }
                 std::sort(by_load.begin(), by_load.end(),
                           [](PlacedTask const* a, PlacedTask const* b) {
                             return heavier_first(*a, *b);
                           });
                 LoadType remaining = gs.load;
                 for (PlacedTask* t : by_load) {
                   if (remaining - t->entry.load < target) {
                     continue;
                   }
                   exported.push_back(*t);
                   t->current = invalid_rank; // mark as exported
                   remaining -= t->entry.load;
                   if (remaining <= target) {
                     break;
                   }
                 }
                 gs.load = remaining;
                 gs.tasks.erase(
                     std::remove_if(gs.tasks.begin(), gs.tasks.end(),
                                    [](PlacedTask const& t) {
                                      return t.current == invalid_rank;
                                    }),
                     gs.tasks.end());
               }

               std::size_t const report_bytes =
                   sizeof(LoadType) +
                   exported.size() * sizeof(PlacedTask);
               report->load = gs.load;
               leader.send(
                   0, report_bytes,
                   [sh, g,
                    report = std::shared_ptr<GroupReport const>{
                        std::move(report)}](rt::RankContext& root) {
                     auto const gj = static_cast<std::size_t>(g);
                     sh->root.group_loads[gj] = report->load;
                     sh->root.exports[gj] = report->exported;
                     if (--sh->root.pending_groups > 0) {
                       return;
                     }
                     // ---- Level 2: root redistributes the excess. ----
                     auto const decision = root_decide(*sh);
                     for (RankId dg = 0; dg < sh->num_groups; ++dg) {
                       auto incoming =
                           std::make_shared<std::vector<PlacedTask> const>(
                               decision.incoming[static_cast<std::size_t>(
                                   dg)]);
                       std::size_t const bytes2 =
                           incoming->size() * sizeof(PlacedTask);
                       root.send(
                           sh->leader_of_group(dg), bytes2,
                           [sh, dg, incoming = std::move(incoming)](
                               rt::RankContext&) {
                             // ---- Level 3: receiving leader places
                             // incoming tasks on least-loaded members. ----
                             auto& gs2 =
                                 sh->groups[static_cast<std::size_t>(dg)];
                             RankId const lo = sh->group_lo(dg);
                             for (PlacedTask t : *incoming) {
                               auto const best = static_cast<std::size_t>(
                                   std::min_element(
                                       gs2.member_loads.begin(),
                                       gs2.member_loads.end()) -
                                   gs2.member_loads.begin());
                               t.current =
                                   lo + static_cast<RankId>(best);
                               gs2.member_loads[best] += t.entry.load;
                               gs2.load += t.entry.load;
                               gs2.tasks.push_back(t);
                             }
                             sh->placed[static_cast<std::size_t>(dg)] =
                                 gs2.tasks;
                           });
                     }
                   });
             });
  });
  rt.run_until_quiescent();

  StrategyResult result;
  for (auto const& group_tasks : sh->placed) {
    for (PlacedTask const& t : group_tasks) {
      TLB_ASSERT(t.current != invalid_rank);
      if (t.current != t.home) {
        result.migrations.push_back(
            Migration{t.entry.id, t.home, t.current, t.entry.load});
      }
    }
  }
  result.new_rank_loads = project_loads(input, result.migrations);
  result.achieved_imbalance = imbalance(result.new_rank_loads);

  auto const stats_after = rt.stats();
  result.cost.lb_messages = stats_after.messages - stats_before.messages;
  result.cost.lb_bytes = stats_after.bytes - stats_before.bytes;
  result.cost.migration_count = result.migrations.size();
  for (Migration const& m : result.migrations) {
    result.cost.migrated_load += m.load;
  }
  return result;
}

} // namespace tlb::lb
