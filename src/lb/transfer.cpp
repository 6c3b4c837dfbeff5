#include "lb/transfer.hpp"

#include <cmath>
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

} // namespace

TransferResult run_transfer(LbParams const& params, RankId self,
                            std::vector<TaskEntry> const& tasks, LoadType l_p,
                            LoadType l_ave, Knowledge& knowledge, Rng& rng) {
  TransferResult result;
  result.final_load = l_p;

  // Algorithm 2 line 3: pick the traversal order O^p.
  std::vector<TaskEntry> const order =
      order_tasks(params.order, tasks, l_ave, l_p);
  TLB_SPAN_ARG("lb", "transfer_pass", "candidates", order.size());

  // Lines 5 and 7: GrapevineLB builds the CMF once; TemperedLB rebuilds it
  // for every candidate so speculative load updates shift sampling away
  // from filling ranks. A Cmf is a pure function of (kind, knowledge,
  // l_ave, self) and draws no random numbers, and only an accepted
  // transfer changes the knowledge. So building at the first candidate
  // and, under recompute, again after each accepted transfer samples
  // exactly what a per-candidate rebuild would.
  std::optional<Cmf> cmf;
  bool stale = true;

  // Line 6: propose transfers while overloaded and candidates remain.
  std::size_t n = 0;
  while (result.final_load > params.threshold * l_ave && n < order.size()) {
    TaskEntry const& candidate = order[n];
    ++n;

    if (stale) {
      cmf.emplace(params.cmf, knowledge.entries(), l_ave, self);
      ++result.cmf_rebuilds;
      stale = false;
    } else if (params.refresh == CmfRefresh::recompute) {
      TLB_AUDIT_BLOCK {
        // The reused CMF must be the one line 7 would build here.
        Cmf const fresh{params.cmf, knowledge.entries(), l_ave, self};
        TLB_INVARIANT(same_distribution(fresh, *cmf),
                      "reused CMF matches a rebuild over current knowledge");
      }
    }
    if (cmf->empty()) {
      ++result.no_target;
      continue;
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
      stale = params.refresh == CmfRefresh::recompute;
      result.final_load -= candidate.load;
      result.migrations.push_back(
          Migration{candidate.id, self, target, candidate.load});
      ++result.accepted;
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
