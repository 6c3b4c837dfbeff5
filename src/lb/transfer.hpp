#pragma once

/// \file transfer.hpp
/// The transfer stage of the gossip load balancer (Algorithm 2), written as
/// a pure function over one rank's local state so it is shared verbatim by
/// the sequential analysis framework (src/lbaf) and the distributed
/// strategies (src/lb/strategy). All paper variants are reachable through
/// LbParams: original/relaxed criterion, original/modified CMF, build-once
/// vs recompute, and the four §V-E orderings.

#include <vector>

#include "lb/knowledge.hpp"
#include "lb/lb_types.hpp"
#include "support/rng.hpp"

namespace tlb::lb {

/// Outcome of one rank's transfer pass.
struct TransferResult {
  /// Proposed migrations M^p with TARGET^p() (Algorithm 2 lines 15-16).
  std::vector<Migration> migrations;
  /// Candidate tasks whose proposed transfer the criterion accepted.
  std::size_t accepted = 0;
  /// Candidate tasks whose proposed transfer the criterion rejected.
  std::size_t rejected = 0;
  /// Candidates skipped because no sampleable recipient existed.
  std::size_t no_target = 0;
  /// O(n) CMF constructions this pass (observability for the §V-A
  /// change-#3 cost claim). A CMF is built only for a candidate that is
  /// not certified rejected (see run_transfer) while some rank is
  /// sampleable: at the first such candidate of the pass and, under
  /// recompute, at the first such candidate after each accepted transfer.
  std::size_t cmf_rebuilds = 0;
  /// This rank's load after the proposed (speculative) transfers.
  LoadType final_load = 0.0;
};

/// Run the transfer stage for rank `self`.
///
/// A candidate that the criterion rejects even against the lowest known
/// non-self load is *certified rejected*: every rank the CMF could draw
/// would reject it too, so it skips the CMF and advances `rng` by the one
/// draw the sample would take. Decisions, counters other than
/// cmf_rebuilds, and the state of `rng` equal Algorithm 2's literal loop.
///
/// \param params    Algorithm variant and threshold h.
/// \param self      This rank's id (never chosen as a recipient).
/// \param tasks     T^p, the rank's current tasks with loads.
/// \param l_p       The rank's current load; must equal the sum of task
///                  loads plus any unmigratable background load.
/// \param l_ave     Global average rank load from the statistics reduction.
///                  Every task load, known load, l_p and l_ave must be
///                  finite and non-negative (checked; a violation aborts).
/// \param knowledge LOAD^p() gathered in the inform stage. Updated in
///                  place as transfers are accepted (line 12), so callers
///                  running iterative refinement carry the speculative
///                  recipient loads forward.
/// \param rng       Deterministic sampling stream.
[[nodiscard]] TransferResult
run_transfer(LbParams const& params, RankId self,
             std::vector<TaskEntry> const& tasks, LoadType l_p, LoadType l_ave,
             Knowledge& knowledge, Rng& rng);

} // namespace tlb::lb
