#include "lb/strategy/strategy.hpp"

#include <stdexcept>
#include <string>

#include "lb/strategy/gossip_strategy.hpp"
#include "lb/strategy/greedy.hpp"
#include "lb/strategy/hier.hpp"
#include "support/assert.hpp"

namespace tlb::lb {

std::vector<LoadType> StrategyInput::rank_loads() const {
  std::vector<LoadType> loads(tasks.size(), 0.0);
  for (std::size_t r = 0; r < tasks.size(); ++r) {
    for (TaskEntry const& t : tasks[r]) {
      loads[r] += t.load;
    }
  }
  return loads;
}

std::vector<LoadType>
project_loads(StrategyInput const& input,
              std::vector<Migration> const& migrations) {
  auto loads = input.rank_loads();
  for (Migration const& m : migrations) {
    TLB_EXPECTS(m.from >= 0 &&
                static_cast<std::size_t>(m.from) < loads.size());
    TLB_EXPECTS(m.to >= 0 && static_cast<std::size_t>(m.to) < loads.size());
    loads[static_cast<std::size_t>(m.from)] -= m.load;
    loads[static_cast<std::size_t>(m.to)] += m.load;
  }
  return loads;
}

std::unique_ptr<Strategy> make_strategy(std::string_view name) {
  if (name == "tempered") {
    return std::make_unique<GossipStrategy>(GossipStrategy::Flavor::tempered);
  }
  if (name == "grapevine") {
    return std::make_unique<GossipStrategy>(
        GossipStrategy::Flavor::grapevine);
  }
  if (name == "greedy") {
    return std::make_unique<GreedyStrategy>();
  }
  if (name == "hier") {
    return std::make_unique<HierStrategy>();
  }
  throw std::invalid_argument("unknown strategy '" + std::string{name} + "'");
}

std::vector<std::string_view> strategy_names() {
  return {"tempered", "grapevine", "greedy", "hier"};
}

} // namespace tlb::lb
