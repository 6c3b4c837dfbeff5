#pragma once

/// \file config.hpp
/// Runtime construction parameters.

#include <cstddef>
#include <cstdint>

#include "support/types.hpp"

namespace tlb::rt {

struct RuntimeConfig {
  /// Number of simulated ranks (logical processes).
  RankId num_ranks = 1;
  /// Worker threads driving the ranks. 1 selects the deterministic
  /// sequential driver; >1 selects the parallel driver, which splits the
  /// rank space into shards that workers claim and steal (a shard runs on
  /// exactly one worker at a time, so per-rank handler execution stays
  /// single-threaded).
  int num_threads = 1;
  /// The single root seed of every stochastic component in a run. All
  /// randomized machinery derives its stream from it by splitmix splits:
  ///   - per-rank handler RNGs (gossip peer selection, CMF sampling):
  ///     Rng{seed}.split(rank);
  ///   - the fault plane (fault::install_fault_plane): a dedicated
  ///     fault-stream split (kFaultStreamTag), then one sub-stream per
  ///     sending rank.
  /// Reproducing any run — including a chaos-suite failure — therefore
  /// requires exactly this one value.
  std::uint64_t seed = 0x5eedf00dull;
  /// Messages a rank drains per scheduler visit, on either driver
  /// (fairness/progress knob; does not affect the final quiescent state of
  /// well-formed protocols).
  int batch = 16;
  /// Envelopes pre-reserved in every mailbox's producer queue and consumer
  /// stash. Zero keeps the historical lazy growth. A value at or above a
  /// protocol's peak per-rank burst makes the steady-state delivery path
  /// allocation-free (pinned by the gossip allocation-counter test).
  std::size_t mailbox_reserve = 0;
  /// Liveness valve for run_until_quiescent(): maximum full sweeps over
  /// the rank set before the runtime gives up, flushes everything still in
  /// flight (counted as dropped), and reports failure so the caller can
  /// fall back. 0 means unlimited — correct protocols always quiesce, so
  /// the budget exists to convert a wedged round into a clean abort.
  std::size_t quiesce_poll_budget = 0;
};

/// Stream tag reserved for deriving the fault plane's RNG from the root
/// seed (kept distinct from the per-rank tags 0..P-1 by living far outside
/// any plausible rank range).
inline constexpr std::uint64_t kFaultStreamTag = 0xfa17'0000'0000'0001ull;

} // namespace tlb::rt
