#include "lb/strategy/greedy.hpp"

#include <memory>

#include "lb/lpt.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace tlb::lb {

namespace {

struct GatheredTask {
  TaskEntry entry;
  RankId home = invalid_rank;
};

struct GatherState {
  std::vector<GatheredTask> tasks;
  RankId pending = 0;
  /// Decisions computed by rank 0's handler, scattered to every rank;
  /// slot r is only written by rank r's handler.
  std::vector<std::vector<Migration>> instructions;
};

/// GreedyLB's placement: LPT over all `p` ranks. Returns the tasks that
/// change rank, heaviest first.
std::vector<Migration> lpt_moves(std::vector<GatheredTask>& tasks, RankId p) {
  std::vector<Migration> moves;
  lpt_schedule(tasks, p, [&](GatheredTask const& t, RankId rank) {
    if (rank != t.home) {
      moves.push_back(Migration{t.entry.id, t.home, rank, t.entry.load});
    }
  });
  return moves;
}

} // namespace

StrategyResult GreedyStrategy::balance(rt::Runtime& rt,
                                       StrategyInput const& input,
                                       LbParams const& /*params*/) {
  auto const p = input.num_ranks();
  TLB_EXPECTS(p == rt.num_ranks());
  auto const stats_before = rt.stats();

  // Gather: every rank sends its measured task list to rank 0, whose
  // handler — on the final arrival — computes the LPT solution and
  // scatters each source rank its migration instructions.
  auto gather = std::make_shared<GatherState>();
  gather->pending = p;
  gather->instructions.resize(static_cast<std::size_t>(p));
  for (RankId r = 0; r < p; ++r) {
    auto const& rank_tasks = input.tasks[static_cast<std::size_t>(r)];
    // Behind a shared_ptr so the closures carrying it fit the envelope.
    auto payload = std::make_shared<std::vector<GatheredTask>>();
    payload->reserve(rank_tasks.size());
    for (TaskEntry const& t : rank_tasks) {
      payload->push_back(GatheredTask{t, r});
    }
    rt.post(r, [gather, p,
                payload = std::shared_ptr<std::vector<GatheredTask> const>{
                    std::move(payload)}](rt::RankContext& ctx) {
      std::size_t const bytes =
          payload->size() * (sizeof(TaskId) + sizeof(LoadType)) +
          sizeof(RankId);
      ctx.send(0, bytes, [gather, p, payload](rt::RankContext& root) {
        gather->tasks.insert(gather->tasks.end(), payload->begin(),
                             payload->end());
        if (--gather->pending > 0) {
          return;
        }
        std::vector<std::vector<Migration>> per_source(
            static_cast<std::size_t>(p));
        for (Migration const& m : lpt_moves(gather->tasks, p)) {
          per_source[static_cast<std::size_t>(m.from)].push_back(m);
        }
        for (RankId dest = 0; dest < p; ++dest) {
          auto instructions =
              std::move(per_source[static_cast<std::size_t>(dest)]);
          std::size_t const instr_bytes =
              instructions.size() * sizeof(Migration);
          root.send(dest, instr_bytes,
                    [gather, instructions = std::move(instructions)](
                        rt::RankContext& ctx2) {
                      gather->instructions[static_cast<std::size_t>(
                          ctx2.rank())] = instructions;
                    });
        }
      });
    });
  }
  rt.run_until_quiescent();
  TLB_ASSERT(gather->pending == 0);

  StrategyResult result;
  for (auto const& per_rank : gather->instructions) {
    result.migrations.insert(result.migrations.end(), per_rank.begin(),
                             per_rank.end());
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

double greedy_imbalance(StrategyInput const& input) {
  std::vector<GatheredTask> tasks;
  for (RankId r = 0; r < input.num_ranks(); ++r) {
    for (TaskEntry const& t : input.tasks[static_cast<std::size_t>(r)]) {
      tasks.push_back(GatheredTask{t, r});
    }
  }
  return imbalance(project_loads(input, lpt_moves(tasks, input.num_ranks())));
}

} // namespace tlb::lb
