#pragma once

/// \file collectives.hpp
/// Tree-based collectives implemented purely with active messages, so that
/// their traffic shows up in the runtime's network statistics exactly as a
/// distributed implementation's would. All collectives are driver-level
/// operations: call them between protocol stages, not from inside handlers.
///
/// The reduction tree is the implicit binary heap layout (children of i are
/// 2i+1 and 2i+2), giving ceil(log2 P) depth and 2(P-1) messages per
/// allreduce (P-1 up, P-1 down).

#include <vector>

#include "runtime/runtime.hpp"
#include "support/assert.hpp"

namespace tlb::rt {

namespace detail {

inline RankId tree_parent(RankId r) { return (r - 1) / 2; }
inline RankId tree_child(RankId r, int which) { return 2 * r + 1 + which; }

inline int tree_num_children(RankId r, RankId p) {
  int n = 0;
  for (int c = 0; c < 2; ++c) {
    if (tree_child(r, c) < p) {
      ++n;
    }
  }
  return n;
}

} // namespace detail

/// Allreduce: combine every rank's contribution with `op` and deliver the
/// global result to every rank. Returns the per-rank results (all equal).
///
/// Under fault injection the reduction tree is fragile by design — one
/// lost or crashed link starves the root and the down-phase never reaches
/// some ranks. `complete` (when non-null) reports whether every rank
/// received the broadcast result before quiescence; callers running with
/// an active fault plane must check it and treat a false as "this round's
/// global statistics are unusable" rather than reading the results.
///
/// \tparam T   Value type; copied into messages.
/// \tparam Op  Binary associative combiner: T op(T const&, T const&).
template <typename T, typename Op>
std::vector<T> allreduce(Runtime& rt, std::vector<T> const& contributions,
                         Op op, std::size_t bytes_per_item = sizeof(T),
                         bool* complete = nullptr) {
  auto const p = rt.num_ranks();
  TLB_EXPECTS(static_cast<RankId>(contributions.size()) == p);

  struct NodeState {
    T value{};
    /// Arrivals still expected: the rank's own value plus one per child.
    int pending = 0;
    /// Whether `value` holds an arrival yet. A delay fault can deliver a
    /// child's value before the rank's own; whichever comes first seeds
    /// the accumulator.
    bool seeded = false;
    // Written only by this rank's broadcast_down handler, read by the
    // driver after quiescence (distinct location per rank: no race).
    char delivered = 0;
  };
  // Shared per-rank state: each slot is only touched by handlers running
  // on its own rank, which the runtime serializes.
  std::vector<NodeState> state(static_cast<std::size_t>(p));
  std::vector<T> results(static_cast<std::size_t>(p));

  // The up-phase send, defined recursively through handler chaining.
  // Messages capture a pointer to the one Proto below, which lives on
  // this frame until quiescence: a copy would not fit the envelope.
  struct Proto {
    std::vector<NodeState>* state;
    std::vector<T>* results;
    Op op;
    std::size_t bytes;
    RankId p;

    void contribute(RankContext& ctx, T const& incoming) const {
      auto& node = (*state)[static_cast<std::size_t>(ctx.rank())];
      node.value = node.seeded ? op(node.value, incoming) : incoming;
      node.seeded = true;
      if (--node.pending == 0) {
        finish(ctx);
      }
    }

    void finish(RankContext& ctx) const {
      auto const r = ctx.rank();
      auto const& node = (*state)[static_cast<std::size_t>(r)];
      if (r == 0) {
        broadcast_down(ctx, node.value);
      } else {
        T value = node.value;
        ctx.send(detail::tree_parent(r), bytes,
                 [proto = this, value](RankContext& up) {
                   proto->contribute(up, value);
                 });
      }
    }

    void broadcast_down(RankContext& ctx, T const& value) const {
      auto const r = ctx.rank();
      (*results)[static_cast<std::size_t>(r)] = value;
      (*state)[static_cast<std::size_t>(r)].delivered = 1;
      for (int c = 0; c < 2; ++c) {
        RankId const child = detail::tree_child(r, c);
        if (child < p) {
          ctx.send(child, bytes, [proto = this, value](RankContext& down) {
            proto->broadcast_down(down, value);
          });
        }
      }
    }
  };

  Proto const proto_block{&state, &results, op, bytes_per_item, p};
  for (RankId r = 0; r < p; ++r) {
    state[static_cast<std::size_t>(r)].pending =
        detail::tree_num_children(r, p) + 1;
  }
  // One fan-out post, in which each rank contributes its own value (its
  // local data in a distributed run): post_all accounts the P messages in
  // bulk where P separate posts would each touch the shared counters.
  rt.post_all([proto = &proto_block,
               mine = &contributions](RankContext& ctx) {
    proto->contribute(ctx, (*mine)[static_cast<std::size_t>(ctx.rank())]);
  });
  bool const quiesced = rt.run_until_quiescent();
  if (complete != nullptr) {
    bool all_delivered = true;
    for (auto const& node : state) {
      all_delivered = all_delivered && node.delivered != 0;
    }
    *complete = quiesced && all_delivered;
  }
  return results;
}

/// Per-rank load statistics carried through the LB's initial allreduce
/// (the paper's "constant-size statistical data": l_max, l_ave inputs).
struct LoadStat {
  LoadType max = 0.0;
  LoadType sum = 0.0;
  std::int64_t count = 0;

  [[nodiscard]] LoadType average() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }

  [[nodiscard]] static LoadStat of(LoadType load) {
    return LoadStat{load, load, 1};
  }

  [[nodiscard]] friend LoadStat combine(LoadStat const& a, LoadStat const& b) {
    return LoadStat{a.max > b.max ? a.max : b.max, a.sum + b.sum,
                    a.count + b.count};
  }
};

/// Allreduce of per-rank loads into global (max, sum, count) statistics.
/// `complete` as in allreduce(): false means some rank never received the
/// result (lost or crashed reduction link) and the stats must be discarded.
inline std::vector<LoadStat> allreduce_loads(Runtime& rt,
                                             std::vector<LoadType> const&
                                                 loads,
                                             bool* complete = nullptr) {
  std::vector<LoadStat> contributions;
  contributions.reserve(loads.size());
  for (LoadType const l : loads) {
    contributions.push_back(LoadStat::of(l));
  }
  return allreduce(rt, contributions,
                   [](LoadStat const& a, LoadStat const& b) {
                     return combine(a, b);
                   },
                   sizeof(LoadStat), complete);
}

} // namespace tlb::rt
