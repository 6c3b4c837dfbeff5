/// \file strategy_compare.cpp
/// Compare every registered strategy (plus the centralized LPT reference)
/// on a family of synthetic workloads using the sequential analysis
/// framework and the distributed runtime — the kind of study LBAF was
/// built for (§V-B).
///
/// Usage: strategy_compare [--ranks=256] [--tasks=2000] [--seed=7]

#include <iostream>

#include "lb/strategy/greedy.hpp"
#include "lb/strategy/strategy.hpp"
#include "lbaf/workload.hpp"
#include "support/config.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace tlb;

lb::StrategyInput to_input(lbaf::Workload const& workload) {
  lb::StrategyInput input;
  input.tasks.resize(static_cast<std::size_t>(workload.num_ranks));
  for (std::size_t i = 0; i < workload.tasks.size(); ++i) {
    input.tasks[static_cast<std::size_t>(workload.initial_rank[i])]
        .push_back(workload.tasks[i]);
  }
  return input;
}

} // namespace

int main(int argc, char** argv) {
  using namespace tlb;
  auto const opts = Options::parse(argc, argv);
  auto const ranks = static_cast<RankId>(opts.get_int("ranks", 256));
  auto const tasks = static_cast<std::size_t>(opts.get_int("tasks", 2000));
  auto const seed = static_cast<std::uint64_t>(opts.get_int("seed", 7));

  struct Case {
    std::string name;
    lbaf::Workload workload;
  };
  std::vector<Case> const cases{
      {"clustered (16 of P loaded)",
       lbaf::make_clustered(ranks, std::min<RankId>(16, ranks), tasks,
                            lbaf::LoadDistribution::gamma, 1.0, seed)},
      {"bimodal (§V-B regime)",
       lbaf::make_bimodal(ranks, std::min<RankId>(16, ranks), tasks,
                          lbaf::BimodalSpec{}, seed)},
      {"gradient (AMR-like)",
       lbaf::make_gradient(ranks, tasks, 4.0,
                           lbaf::LoadDistribution::lognormal, 1.0, seed)},
      {"scattered (mild noise)",
       lbaf::make_scattered(ranks, tasks, lbaf::LoadDistribution::uniform,
                            1.0, seed)},
  };

  auto params = lb::LbParams::tempered();
  params.rounds = 8;
  params.num_trials = 4;
  params.num_iterations = 6;

  for (auto const& c : cases) {
    auto const input = to_input(c.workload);
    double const before = imbalance(input.rank_loads());
    double const lpt_floor = lb::greedy_imbalance(input);

    std::cout << "== " << c.name << "  (initial I = " << Table::fmt(before, 2)
              << ", LPT reference I = " << Table::fmt(lpt_floor, 3)
              << ") ==\n";
    Table table{{"strategy", "I after", "migrations", "LB messages",
                 "LB bytes"}};
    for (auto const name : lb::strategy_names()) {
      rt::RuntimeConfig rt_config;
      rt_config.num_ranks = ranks;
      rt::Runtime runtime{rt_config};
      auto strategy = lb::make_strategy(name);
      auto const result = strategy->balance(runtime, input, params);
      table.begin_row()
          .add_cell(name)
          .add_cell(result.achieved_imbalance, 3)
          .add_cell(result.migrations.size())
          .add_cell(result.cost.lb_messages)
          .add_cell(result.cost.lb_bytes);
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
