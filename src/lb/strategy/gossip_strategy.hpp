#pragma once

/// \file gossip_strategy.hpp
/// The distributed gossip balancer (GrapevineLB / TemperedLB) running over
/// the AMT runtime with real active messages:
///
///   1. allreduce of per-rank loads -> l_ave, l_max (constant-size stats);
///   2. per trial, per iteration: an inform epoch (Algorithm 1) whose
///      gossip messages carry each sender's knowledge snapshot, followed by
///      a local transfer pass (Algorithm 2) on every overloaded rank and
///      notification messages that carry proposed (speculative) task
///      arrivals to their recipients;
///   3. an allreduce evaluating the proposed imbalance (Algorithm 3 line 9);
///      the best state across all trials and iterations wins;
///   4. the winning speculative placement is converted into real
///      migrations (origin -> final rank, collapsing multi-hop proposals).
///
/// GrapevineLB is the same machinery restricted to the original design
/// point: one trial, one iteration, original criterion and CMF built once,
/// arbitrary order, and unconditional acceptance of the outcome.
///
/// TemperedLB takes its CMF refresh mode from the caller's LbParams:
/// recompute (the tempered() preset) or build_once.

#include "lb/knowledge.hpp"
#include "lb/strategy/strategy.hpp"

namespace tlb::lb {

class GossipStrategy final : public Strategy {
public:
  enum class Flavor { grapevine, tempered };

  explicit GossipStrategy(Flavor flavor) : flavor_{flavor} {}

  [[nodiscard]] std::string_view name() const override {
    return flavor_ == Flavor::grapevine ? "grapevine" : "tempered";
  }

  [[nodiscard]] StrategyResult balance(rt::Runtime& rt,
                                       StrategyInput const& input,
                                       LbParams const& params) override;

private:
  Flavor flavor_;
};

} // namespace tlb::lb
