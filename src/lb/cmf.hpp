#pragma once

/// \file cmf.hpp
/// The cumulative mass function used to pick a transfer recipient
/// (Algorithm 2, BUILDCMF). A rank's sampling weight is proportional to its
/// load headroom relative to the normalizer l_s:
///
///   original: l_s = l_ave;                      p_i ∝ 1 − load_i / l_s
///   modified: l_s = max(l_ave, max known load); p_i ∝ 1 − load_i / l_s
///
/// Under the relaxed criterion a known rank's (speculative) load may exceed
/// l_ave, which would make the original weight negative; the modified
/// normalizer keeps every weight non-negative (§V-C, change #5). Entries
/// with non-positive weight are excluded from sampling.

#include <span>
#include <vector>

#include "lb/knowledge.hpp"
#include "lb/lb_types.hpp"
#include "support/rng.hpp"

namespace tlb::lb {

/// A built CMF over a snapshot of known ranks. Value type, and a pure
/// function of its constructor arguments (it draws no random numbers), so
/// the transfer loop rebuilds it only when the knowledge has changed.
class Cmf {
public:
  /// Build from the current knowledge. `self` is excluded (a rank never
  /// transfers to itself).
  Cmf(CmfKind kind, std::span<KnownRank const> known, LoadType l_ave,
      RankId self);

  /// True when no rank has positive headroom (sampling impossible).
  [[nodiscard]] bool empty() const { return cumulative_.empty(); }
  [[nodiscard]] std::size_t size() const { return cumulative_.size(); }

  /// Sample a recipient rank; precondition: !empty().
  [[nodiscard]] RankId sample(Rng& rng) const;

  /// Probability assigned to the i-th *sampleable* entry (for tests).
  [[nodiscard]] double probability(std::size_t i) const;
  /// Rank of the i-th sampleable entry.
  [[nodiscard]] RankId rank_at(std::size_t i) const;

  /// The normalizer l_s actually used.
  [[nodiscard]] LoadType normalizer() const { return l_s_; }

private:
  friend void audit_cmf(Cmf const& cmf, CmfKind kind,
                        std::span<KnownRank const> known, LoadType l_ave,
                        RankId self);
  std::vector<RankId> ranks_;
  std::vector<double> cumulative_; // strictly increasing, back() == 1.0
  LoadType l_s_ = 0.0;
};

/// Invariant auditor entry point: check that `prefix` is a valid built CMF
/// prefix vector — entries in (0, 1], monotone non-decreasing, last pinned
/// to exactly 1. No-op unless the audit build is active; exposed separately
/// from the constructor hook so auditor self-tests can feed it corrupted
/// vectors (tests/support/check_test.cpp).
void audit_cmf_prefix(std::span<double const> prefix);

/// Full audit of a built Cmf against the knowledge it was built from:
/// prefix validity plus the normalizer bounds (l_s == l_ave for the
/// original kind; l_s ≥ max known non-self load and ≥ l_ave for the
/// modified kind, §V-C change #5) and self-exclusion.
void audit_cmf(Cmf const& cmf, CmfKind kind, std::span<KnownRank const> known,
               LoadType l_ave, RankId self);

} // namespace tlb::lb
