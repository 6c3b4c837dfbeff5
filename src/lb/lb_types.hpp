#pragma once

/// \file lb_types.hpp
/// Vocabulary types for the load-balancing algorithms: the algorithm
/// variants the paper studies (§V) and the data they exchange.

#include <cstdint>
#include <string_view>
#include <vector>

#include "support/types.hpp"

namespace tlb::lb {

/// A task as the balancer sees it: identity plus measured load.
struct TaskEntry {
  TaskId id = invalid_task;
  LoadType load = 0.0;

  friend bool operator==(TaskEntry const&, TaskEntry const&) = default;
};

/// CMF normalization (Algorithm 2, BUILDCMF).
///   original: l_s = l_ave                      (GrapevineLB)
///   modified: l_s = max(l_ave, max known load) (§V-C, change #5)
enum class CmfKind : std::uint8_t { original, modified };

/// When to (re)build the CMF during the transfer loop (§V-A, change #3).
///   build_once: once, over the knowledge the loop starts with
///               (GrapevineLB, Algorithm 2 line 5)
///   recompute:  over the current speculative knowledge at every candidate
///               (TemperedLB, line 7). Only an accepted transfer changes
///               that knowledge, so run_transfer rebuilds after each
///               accepted transfer and reuses the CMF otherwise; the draws
///               equal a per-candidate rebuild's bit for bit.
enum class CmfRefresh : std::uint8_t { build_once, recompute };

/// Transfer-acceptance criterion (Algorithm 2, EVALUATECRITERION).
///   original: l_x + LOAD(o) < l_ave  (line 35, GrapevineLB)
///   relaxed:  LOAD(o) < l^p − l_x    (line 37, proven optimal in §V-C)
enum class CriterionKind : std::uint8_t { original, relaxed };

/// Candidate-task traversal order for the transfer loop (§V-E).
///   arbitrary:         identity order (original GrapevineLB)
///   load_intensive:    descending load (Algorithm 4, straw-man)
///   fewest_migrations: cutoff-task-first (Algorithm 5, best in Fig. 4d)
///   lightest:          marginal-task-first (Algorithm 6)
enum class OrderKind : std::uint8_t {
  arbitrary,
  load_intensive,
  fewest_migrations,
  lightest
};

/// How a forwarding event serializes its knowledge (the gossip wire
/// plane; see DESIGN.md "Gossip wire plane").
///   full:  every forward ships the rank's entire knowledge set — the
///          O(rounds x fanout x |S^p|) baseline of Algorithm 1.
///   delta: each forward ships only the run of entries the rank
///          appended since its previous forwarding event; it ships a full
///          snapshot instead whenever the knowledge owes one
///          (Knowledge::owes_full(); in the inform plane that is an
///          epoch's first forward and any forward after a truncation that
///          dropped entries).
enum class GossipWire : std::uint8_t { full, delta };

/// Full parameterization of one inform+transfer pass. The named presets
/// below reproduce the paper's configurations.
struct LbParams {
  CriterionKind criterion = CriterionKind::relaxed;
  CmfKind cmf = CmfKind::modified;
  CmfRefresh refresh = CmfRefresh::recompute;
  OrderKind order = OrderKind::fewest_migrations;
  /// Relative imbalance threshold h: the transfer loop runs while
  /// l^p > h * l_ave.
  double threshold = 1.0;
  /// Gossip fanout f.
  int fanout = 6;
  /// Gossip rounds k.
  int rounds = 10;
  /// Iterative-refinement iterations per trial (Algorithm 3). GrapevineLB
  /// corresponds to a single iteration and a single trial.
  int num_iterations = 8;
  /// Independent trials, each restarted from the pre-LB assignment.
  int num_trials = 10;
  /// Cap on the number of underloaded ranks a rank keeps/gossips: past
  /// it, a uniformly random subset survives (Knowledge::truncate_random;
  /// keeping the lightest entries herds every sender onto the same
  /// targets, EXPERIMENTS.md E11). 0 means unlimited — the paper's
  /// published configuration; a positive cap implements the footnote-2
  /// future-work direction of bounding the O(P) knowledge lists.
  int max_knowledge = 0;
  /// Wire encoding of gossip forwards. Delta is the default: with the
  /// paper's saturating fanout/rounds it converges to the same knowledge
  /// sets as full resend (pinned by the equivalence tests) at a fraction
  /// of the bytes.
  GossipWire gossip_wire = GossipWire::delta;
  /// Use negative acknowledgements on speculative transfers: a recipient
  /// that the proposal would push past the threshold bounces the task
  /// back to the sender. Menon et al.'s original design point; the paper
  /// deliberately drops it (§V-A) in favor of CMF recomputation, so this
  /// is off by default and exists for the ablation bench.
  bool use_nacks = false;
  /// Deterministic seed for peer selection and CMF sampling.
  std::uint64_t seed = 0x7e3a11c5u;

  /// The original GrapevineLB configuration (§IV-B).
  [[nodiscard]] static LbParams grapevine();
  /// The paper's TemperedLB configuration (§V; Fig. 2 uses
  /// fewest_migrations with 10 trials x 8 iterations), with the
  /// recompute CMF.
  [[nodiscard]] static LbParams tempered();
};

[[nodiscard]] std::string_view to_string(CmfKind kind);
[[nodiscard]] std::string_view to_string(CmfRefresh refresh);
[[nodiscard]] std::string_view to_string(CriterionKind kind);
[[nodiscard]] std::string_view to_string(OrderKind kind);
[[nodiscard]] std::string_view to_string(GossipWire wire);

/// Parse an OrderKind from its to_string form; throws std::invalid_argument
/// on unknown names.
[[nodiscard]] OrderKind order_from_string(std::string_view name);

} // namespace tlb::lb
