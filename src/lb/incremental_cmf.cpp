#include "lb/incremental_cmf.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"
#include "support/check.hpp"

namespace tlb::lb {

void IncrementalCmf::audit_consistency() const {
  TLB_AUDIT_BLOCK {
    // Shadow recompute: the incrementally maintained state must match what
    // a from-scratch rebuild over the same loads would produce.
    double sum = 0.0;
    std::size_t positive = 0;
    LoadType max_load = 0.0;
    bool weights_match = true;
    for (std::size_t i = 0; i < loads_.size(); ++i) {
      double const expect =
          l_s_ > 0.0 ? std::max(0.0, 1.0 - loads_[i] / l_s_) : 0.0;
      weights_match =
          weights_match && std::abs(weights_[i] - expect) <= 1e-12;
      sum += weights_[i];
      positive += weights_[i] > 0.0 ? 1u : 0u;
      max_load = std::max(max_load, loads_[i]);
    }
    TLB_INVARIANT(weights_match,
                  "incremental CMF weights match recompute from loads");
    TLB_INVARIANT(positive == positive_,
                  "incremental CMF positive-weight count cache consistent");
    TLB_INVARIANT(std::abs(tree_.total() - sum) <=
                      1e-9 * std::max(1.0, sum),
                  "Fenwick total equals sum of weights");
    if (kind_ == CmfKind::modified && l_s_ > 0.0) {
      TLB_INVARIANT(l_s_ >= l_ave_, "modified normalizer >= l_ave");
      TLB_INVARIANT(l_s_ >= max_load,
                    "modified normalizer >= max tracked load");
    }
  }
}

IncrementalCmf::IncrementalCmf(CmfKind kind, std::span<KnownRank const> known,
                               LoadType l_ave, RankId self)
    : kind_{kind}, self_{self}, l_ave_{l_ave} {
  rebuild(known);
  rebuilds_ = 0; // the constructor's build is not an escalation
}

void IncrementalCmf::rebuild(std::span<KnownRank const> known) {
  ranks_.clear();
  loads_.clear();
  ranks_.reserve(known.size());
  loads_.reserve(known.size());
  for (KnownRank const& e : known) {
    if (e.rank == self_) {
      continue;
    }
    ranks_.push_back(e.rank);
    loads_.push_back(e.load);
  }
  rebuild_weights();
}

void IncrementalCmf::rebuild_weights() {
  ++rebuilds_;
  l_s_ = l_ave_;
  if (kind_ == CmfKind::modified) {
    for (LoadType const l : loads_) {
      l_s_ = std::max(l_s_, l);
    }
  }
  weights_.assign(loads_.size(), 0.0);
  positive_ = 0;
  if (l_s_ > 0.0) {
    for (std::size_t i = 0; i < loads_.size(); ++i) {
      double const w = weight_of(loads_[i]);
      weights_[i] = w;
      positive_ += w > 0.0 ? 1 : 0;
    }
  }
  tree_.assign(weights_);
  audit_consistency();
}

double IncrementalCmf::weight_of(LoadType load) const {
  double const w = 1.0 - load / l_s_;
  return w > 0.0 ? w : 0.0;
}

std::size_t IncrementalCmf::index_of(RankId rank) const {
  auto const it = std::lower_bound(ranks_.begin(), ranks_.end(), rank);
  TLB_EXPECTS(it != ranks_.end() && *it == rank);
  return static_cast<std::size_t>(it - ranks_.begin());
}

bool IncrementalCmf::contains(RankId rank) const {
  auto const it = std::lower_bound(ranks_.begin(), ranks_.end(), rank);
  return it != ranks_.end() && *it == rank;
}

void IncrementalCmf::add_load(RankId rank, LoadType delta) {
  auto const i = index_of(rank);
  LoadType const old_load = loads_[i];
  LoadType const new_load = old_load + delta;
  loads_[i] = new_load;

  if (kind_ == CmfKind::modified &&
      (new_load > l_s_ || (old_load >= l_s_ && new_load < old_load))) {
    // Normalizer shift: the updated rank either overtook l_s or was the
    // rank realizing it and shrank. Every weight changes; O(n) refill.
    rebuild_weights();
    return;
  }
  if (l_s_ <= 0.0) {
    audit_consistency();
    return; // degenerate normalizer: nothing is sampleable regardless
  }
  double const old_w = weights_[i];
  double const new_w = weight_of(new_load);
  weights_[i] = new_w;
  if (new_w > 0.0 && old_w <= 0.0) {
    ++positive_;
  } else if (new_w <= 0.0 && old_w > 0.0) {
    --positive_;
  }
  tree_.add(i, new_w - old_w);
  audit_consistency();
}

RankId IncrementalCmf::sample(Rng& rng) const {
  TLB_EXPECTS(!empty());
  double const u = rng.uniform();
  auto idx = tree_.lower_bound(u * tree_.total());
  if (idx >= ranks_.size()) {
    // u*total reached total() through rounding: clamp to the last
    // sampleable entry, exactly as Cmf pins its last bucket to 1.0.
    idx = ranks_.size() - 1;
    while (idx > 0 && weights_[idx] <= 0.0) {
      --idx;
    }
  }
  return ranks_[idx];
}

double IncrementalCmf::probability_of(RankId rank) const {
  auto const it = std::lower_bound(ranks_.begin(), ranks_.end(), rank);
  if (it == ranks_.end() || *it != rank) {
    return 0.0;
  }
  double const total = tree_.total();
  if (total <= 0.0) {
    return 0.0;
  }
  return weights_[static_cast<std::size_t>(it - ranks_.begin())] / total;
}

} // namespace tlb::lb
