#pragma once

/// \file config.hpp
/// Runtime construction parameters.

#include <cstdint>

#include "support/types.hpp"

namespace tlb::rt {

/// Resilience knobs for the fault-mode delivery protocol (rt::DeliveryBatch,
/// which carries the gossip strategy's transfer proposals and
/// ObjectStore::migrate's payloads). Timeouts in the simulated runtime are
/// quiescence boundaries: a send whose acknowledgement has not arrived
/// once the network is quiescent is provably lost (dropped or purged by
/// the fault plane), so each retry attempt is separated by a run to
/// quiescence and resent after an exponentially growing poll-count
/// backoff.
struct RetryPolicy {
  /// Sends per item, the initial send included (4 means 3 resends; below
  /// 1 still sends once). An item unacked after the last is settled from
  /// the destination's record.
  int max_attempts = 4;
  /// Attempt k's resend is parked for base << (k-1) drain polls of the
  /// origin rank (bounded by max_backoff_polls) before going out.
  std::uint64_t backoff_base_polls = 8;
  std::uint64_t max_backoff_polls = 1024;
  /// Liveness valve for run_until_quiescent: maximum full sweeps over the
  /// rank set before the runtime gives up, flushes everything still in
  /// flight (counted as dropped), and reports failure so the caller can
  /// fall back. 0 means unlimited — correct protocols always quiesce, so
  /// the budget exists to convert a wedged round into a clean abort.
  std::size_t quiesce_poll_budget = 0;
};

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
  ///   - per-rank handler RNGs (gossip peer selection, CMF sampling,
  ///     pop_batch_random): Rng{seed}.split(rank);
  ///   - the fault plane (fault::install_fault_plane): a dedicated
  ///     fault-stream split (kFaultStreamTag), then one sub-stream per
  ///     sending rank.
  /// Reproducing any run — including a chaos-suite failure — therefore
  /// requires exactly this one value.
  std::uint64_t seed = 0x5eedf00dull;
  /// Messages a rank drains per scheduler visit in the sequential driver
  /// (fairness/progress knob; does not affect the final quiescent state of
  /// well-formed protocols).
  int batch = 16;
  /// Envelopes pre-reserved in every mailbox's producer queue and consumer
  /// stash. Zero keeps the historical lazy growth. A value at or above a
  /// protocol's peak per-rank burst makes the steady-state delivery path
  /// allocation-free (pinned by the gossip allocation-counter test).
  std::size_t mailbox_reserve = 0;
  /// Fault-injection knob: deliver each mailbox's messages in a random
  /// order instead of FIFO (deterministic given `seed`). Real networks
  /// reorder across channels; protocols built on this runtime must not
  /// depend on delivery order for correctness, and the test suite runs
  /// them under this mode to prove it.
  bool random_delivery = false;
  /// Retry/timeout policy for the resilient protocols. Only consulted
  /// when a fault plane is installed (Runtime::fault_active()); the
  /// fault-free fast paths stay bit-identical to the historical behavior.
  RetryPolicy retry;
};

/// Stream tag reserved for deriving the fault plane's RNG from the root
/// seed (kept distinct from the per-rank tags 0..P-1 by living far outside
/// any plausible rank range).
inline constexpr std::uint64_t kFaultStreamTag = 0xfa17'0000'0000'0001ull;

} // namespace tlb::rt
