#pragma once

/// \file greedy.hpp
/// GreedyLB: the centralized, non-scalable quality yardstick (§VI-B).
/// Every rank ships its task measurements to rank 0, which runs
/// longest-processing-time-first (LPT) list scheduling with full global
/// knowledge and scatters the resulting placement. LPT guarantees a
/// makespan within 4/3 of optimal, so this strategy bounds the load
/// distribution quality the distributed schemes are compared against.

#include "lb/strategy/strategy.hpp"

namespace tlb::lb {

class GreedyStrategy final : public Strategy {
public:
  [[nodiscard]] std::string_view name() const override { return "greedy"; }

  [[nodiscard]] StrategyResult balance(rt::Runtime& rt,
                                       StrategyInput const& input,
                                       LbParams const& params) override;
};

/// The imbalance I of GreedyLB's LPT placement of `input`, computed
/// without the protocol: the centralized quality floor the distributed
/// schemes are measured against.
[[nodiscard]] double greedy_imbalance(StrategyInput const& input);

} // namespace tlb::lb
