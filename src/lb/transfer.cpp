#include "lb/transfer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "lb/cmf.hpp"
#include "lb/criterion.hpp"
#include "lb/order.hpp"
#include "obs/tracer.hpp"
#include "support/assert.hpp"
#include "support/check.hpp"

namespace tlb::lb {

namespace {

/// True when two CMFs sample the same distribution bit for bit: the same
/// normalizer and, per sampleable entry, the same rank and probability.
bool same_distribution(Cmf const& a, Cmf const& b) {
  if (a.normalizer() != b.normalizer() || a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.rank_at(i) != b.rank_at(i) ||
        a.probability(i) != b.probability(i)) {
      return false;
    }
  }
  return true;
}

bool finite_non_negative(LoadType load) {
  return std::isfinite(load) && load >= 0.0;
}

/// What one pass over the knowledge, in storage order and without a sort,
/// tells the transfer loop before it builds a CMF.
struct KnownBounds {
  /// The lowest non-self known load: every rank a CMF built from this
  /// knowledge can sample is known, not self, and at least this loaded.
  LoadType lo = std::numeric_limits<LoadType>::infinity();
  /// A rank known at load lo; invalid_rank when no non-self rank is known.
  RankId lo_rank = invalid_rank;
  /// The normalizer l_s a CMF built from this knowledge would use,
  /// computed exactly as the Cmf constructor computes it.
  LoadType l_s = 0.0;

  /// True when a CMF built from this knowledge has nothing to sample. The
  /// CMF weights rank i by 1 − load_i / l_s and samples it only when that
  /// is positive. With l_s > 0, x ↦ 1 − x / l_s is monotone in floating
  /// point, so some rank is sampleable iff the lowest load's weight is.
  [[nodiscard]] bool cmf_empty() const {
    return lo_rank == invalid_rank || !(l_s > 0.0) ||
           !(1.0 - lo / l_s > 0.0);
  }
};

KnownBounds known_bounds(CmfKind kind, Knowledge const& knowledge,
                         LoadType l_ave, RankId self) {
  KnownBounds bounds;
  bounds.l_s = l_ave;
  for (KnownRank const& e : knowledge.unordered_entries()) {
    TLB_EXPECTS(finite_non_negative(e.load));
    if (e.rank == self) {
      continue;
    }
    if (e.load < bounds.lo) {
      bounds.lo = e.load;
      bounds.lo_rank = e.rank;
    }
    if (kind == CmfKind::modified) {
      bounds.l_s = std::max(bounds.l_s, e.load);
    }
  }
  TLB_AUDIT_BLOCK {
    TLB_INVARIANT(Cmf(kind, knowledge.entries(), l_ave, self).empty() ==
                      bounds.cmf_empty(),
                  "CMF emptiness follows from the lowest known load");
  }
  return bounds;
}

/// True when no sampleable rank of `cmf`, at its current known load,
/// would accept a task of load `task_load` from a rank at `l_p`.
bool rejected_by_every_target(Cmf const& cmf, Knowledge const& knowledge,
                              CriterionKind criterion, LoadType task_load,
                              LoadType l_ave, LoadType l_p) {
  for (std::size_t i = 0; i < cmf.size(); ++i) {
    if (evaluate_criterion(criterion, knowledge.load_of(cmf.rank_at(i)),
                           task_load, l_ave, l_p)) {
      return false;
    }
  }
  return true;
}

} // namespace

TransferResult run_transfer(LbParams const& params, RankId self,
                            std::vector<TaskEntry> const& tasks, LoadType l_p,
                            LoadType l_ave, Knowledge& knowledge, Rng& rng) {
  // The certificate below is exact only over finite, non-negative loads
  // (every knowledge load is checked in known_bounds).
  TLB_EXPECTS(finite_non_negative(l_p));
  TLB_EXPECTS(finite_non_negative(l_ave));
  LoadType lightest = std::numeric_limits<LoadType>::infinity();
  for (TaskEntry const& t : tasks) {
    TLB_EXPECTS(finite_non_negative(t.load));
    lightest = std::min(lightest, t.load);
  }
  TLB_SPAN_ARG("lb", "transfer_pass", "candidates", tasks.size());
  TransferResult result;
  result.final_load = l_p;

  // A candidate is *certified rejected* when the criterion rejects it
  // even for the lowest known load: every rank the CMF can draw is known
  // with a load at least that low, loads only rise during a pass, and
  // floating-point + and − are monotone, so the draw's target rejects it
  // too. Its draw is skipped with Rng::discard, so every later draw and
  // decision is the one the literal loop makes.
  KnownBounds bounds = known_bounds(params.cmf, knowledge, l_ave, self);
  auto const certified = [&](LoadType task_load) {
    return !evaluate_criterion(params.criterion, bounds.lo, task_load, l_ave,
                               result.final_load);
  };
  if (result.final_load > params.threshold * l_ave) {
    // Nothing can be accepted, so every candidate is tried at l_p: all
    // without a target, or all certified when the lightest one is.
    if (bounds.cmf_empty()) {
      result.no_target = tasks.size();
      return result;
    }
    if (certified(lightest)) {
      rng.discard(tasks.size());
      result.rejected = tasks.size();
      return result;
    }
  }

  // Algorithm 2 line 3: pick the traversal order O^p.
  std::vector<TaskEntry> const order =
      order_tasks(params.order, tasks, l_ave, l_p);

  // Lines 5 and 7: GrapevineLB builds the CMF once; TemperedLB rebuilds it
  // for every candidate so speculative load updates shift sampling away
  // from filling ranks. A Cmf is a pure function of (kind, knowledge,
  // l_ave, self) and draws no random numbers, and only an accepted
  // transfer changes the knowledge. So building at the first uncertified
  // candidate and, under recompute, again at the first one after each
  // accepted transfer samples exactly what a per-candidate rebuild would.
  std::optional<Cmf> cmf;
  bool stale = true;
  // Set when an accepted transfer raised the lowest known load, so the
  // bounds need a rescan before the next candidate certifies.
  bool bounds_stale = false;
  bool const recompute = params.refresh == CmfRefresh::recompute;

  // Line 6: propose transfers while overloaded and candidates remain.
  std::size_t n = 0;
  while (result.final_load > params.threshold * l_ave && n < order.size()) {
    TaskEntry const& candidate = order[n];
    ++n;

    if (bounds_stale) {
      bounds = known_bounds(params.cmf, knowledge, l_ave, self);
      bounds_stale = false;
    }
    if (bounds.cmf_empty()) {
      ++result.no_target;
      continue;
    }
    if (certified(candidate.load)) {
      TLB_AUDIT_BLOCK {
        Cmf const fresh{params.cmf, knowledge.entries(), l_ave, self};
        TLB_INVARIANT(
            rejected_by_every_target(fresh, knowledge, params.criterion,
                                     candidate.load, l_ave,
                                     result.final_load) &&
                (stale || rejected_by_every_target(
                              *cmf, knowledge, params.criterion,
                              candidate.load, l_ave, result.final_load)),
            "certified candidate is rejected by every sampleable rank");
      }
      rng.discard(1); // the uniform() that Cmf::sample would draw
      ++result.rejected;
      continue;
    }

    if (stale) {
      cmf.emplace(params.cmf, knowledge.entries(), l_ave, self);
      ++result.cmf_rebuilds;
      stale = false;
    } else if (recompute) {
      TLB_AUDIT_BLOCK {
        // The reused CMF must be the one line 7 would build here.
        Cmf const fresh{params.cmf, knowledge.entries(), l_ave, self};
        TLB_INVARIANT(same_distribution(fresh, *cmf),
                      "reused CMF matches a rebuild over current knowledge");
      }
    }

    // Lines 9-10: sample a recipient and read its last-known load.
    RankId const target = cmf->sample(rng);
    LoadType const l_x = knowledge.load_of(target);

    // Line 11: the acceptance criterion (original vs relaxed).
    if (evaluate_criterion(params.criterion, l_x, candidate.load, l_ave,
                           result.final_load)) {
      TLB_AUDIT_BLOCK {
        // Lemma 1: an accepted relaxed-criterion transfer strictly lowers
        // max(l^p, l_x), so the objective F(D) = I_D − h + 1 cannot grow.
        // The original criterion instead guarantees the recipient stays
        // below average (Algorithm 2 line 35).
        if (params.criterion == CriterionKind::relaxed) {
          TLB_INVARIANT(transfer_preserves_objective(l_x, candidate.load,
                                                     result.final_load),
                        "relaxed criterion preserves objective (Lemma 1)");
        } else {
          TLB_INVARIANT(l_x + candidate.load < l_ave,
                        "original criterion keeps recipient below average");
        }
      }
      // Lines 12-16: commit the speculative transfer.
      knowledge.add_load(target, candidate.load);
      result.final_load -= candidate.load;
      result.migrations.push_back(
          Migration{candidate.id, self, target, candidate.load});
      ++result.accepted;
      if (recompute) {
        // Only the target's load rose, to l_x + w (what add_load stored).
        // Unless the target held lo, lo stands and l_s is the larger of
        // itself and that load; the CMF may have emptied either way,
        // which cmf_empty() rechecks.
        stale = true;
        if (target == bounds.lo_rank) {
          bounds_stale = true;
        } else if (params.cmf == CmfKind::modified) {
          bounds.l_s = std::max(bounds.l_s, l_x + candidate.load);
        }
        TLB_AUDIT_BLOCK {
          if (!bounds_stale) {
            KnownBounds const rescan =
                known_bounds(params.cmf, knowledge, l_ave, self);
            TLB_INVARIANT(rescan.lo == bounds.lo && rescan.l_s == bounds.l_s,
                          "bounds updated after a transfer match a rescan");
          }
        }
      }
    } else {
      ++result.rejected;
    }
  }

  TLB_AUDIT_BLOCK {
    // Conservation: every unit of load shed by this rank is accounted for
    // by exactly one proposed migration, and counters tally the loop.
    double moved = 0.0;
    for (Migration const& m : result.migrations) {
      moved += m.load;
    }
    TLB_INVARIANT(std::abs(result.final_load + moved - l_p) <=
                      1e-9 * std::max(1.0, std::abs(l_p)),
                  "load conservation across run_transfer");
    TLB_INVARIANT(result.migrations.size() == result.accepted,
                  "one migration per accepted transfer");
    TLB_INVARIANT(result.accepted + result.rejected + result.no_target <=
                      order.size(),
                  "every candidate dispositioned at most once");
  }
  return result;
}

} // namespace tlb::lb
