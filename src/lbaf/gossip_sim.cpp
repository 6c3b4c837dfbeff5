#include "lbaf/gossip_sim.hpp"

#include <algorithm>
#include <deque>

#include "lb/strategy/inform_plane.hpp"
#include "runtime/serialize.hpp"
#include "support/assert.hpp"

namespace tlb::lbaf {

namespace {

/// One forwarding event in flight: its sender, the round its messages are
/// processed at, and its packed bytes. Its f messages go out back to back
/// to the sender's overlay peers in order, and every later forward joins
/// the queue behind them, so delivering a whole forward at a time is the
/// order a FIFO of single messages gives.
struct Forward {
  RankId from = invalid_rank;
  int round = 0;
  std::vector<std::byte> bytes;
};

} // namespace

std::vector<lb::Knowledge>
run_gossip(std::vector<LoadType> const& rank_loads, LoadType l_ave, int fanout,
           int rounds, Rng& rng, GossipStats* stats,
           std::size_t max_knowledge, lb::GossipWire wire) {
  auto const num_ranks = static_cast<RankId>(rank_loads.size());
  TLB_EXPECTS(num_ranks > 0);
  TLB_EXPECTS(fanout > 0);
  TLB_EXPECTS(rounds >= 1);

  std::vector<lb::Knowledge> knowledge(rank_loads.size());
  // Bitmask of rounds each rank has already forwarded at (k <= 64).
  std::vector<std::uint64_t> forwarded(rank_loads.size(), 0);
  GossipStats local_stats;
  local_stats.per_round.resize(static_cast<std::size_t>(rounds) + 1);

  if (num_ranks == 1) {
    if (stats != nullptr) {
      *stats = local_stats;
    }
    return knowledge;
  }

  std::deque<Forward> queue;

  // The epoch's gossip overlay: every rank's peer set is fixed up front
  // (drawn before any message flows, so RNG consumption is identical
  // under both wire modes and the message graph is knowledge-independent).
  std::vector<std::vector<RankId>> overlay(rank_loads.size());
  for (RankId p = 0; p < num_ranks; ++p) {
    lb::draw_peers(overlay[static_cast<std::size_t>(p)], num_ranks, p, fanout,
                   rng);
  }

  // Pack once per forwarding event, as the inform plane does.
  auto send_fanout = [&](RankId from, int next_round) {
    rt::Packer packer;
    lb::pack_forward(packer, knowledge[static_cast<std::size_t>(from)],
                     next_round, wire);
    queue.push_back(Forward{from, next_round, std::move(packer).take()});
  };

  // Algorithm 1, INFORM: underloaded ranks seed the epidemic.
  for (RankId p = 0; p < num_ranks; ++p) {
    auto const pi = static_cast<std::size_t>(p);
    if (rank_loads[pi] < l_ave) {
      knowledge[pi].insert(p, rank_loads[pi]);
      forwarded[pi] |= 1ull;
      send_fanout(p, 1);
    }
  }

  // Algorithm 1, INFORMHANDLER: FIFO drain emulates async delivery.
  while (!queue.empty()) {
    Forward const fwd = std::move(queue.front());
    queue.pop_front();
    auto const length = fwd.bytes.size();
    for (RankId const dest : overlay[static_cast<std::size_t>(fwd.from)]) {
      auto const pi = static_cast<std::size_t>(dest);
      bool const full = lb::merge_forward(fwd.bytes, fwd.round, knowledge[pi]);
      knowledge[pi].truncate_random(max_knowledge, rng);

      ++local_stats.messages;
      local_stats.full_messages += full ? 1 : 0;
      local_stats.bytes += length;
      local_stats.max_round_seen = std::max(
          local_stats.max_round_seen, static_cast<std::size_t>(fwd.round));

      auto& round_stats = local_stats.per_round[static_cast<std::size_t>(
          std::min(fwd.round, rounds))];
      std::size_t const k = knowledge[pi].size();
      round_stats.knowledge_min =
          round_stats.messages == 0 ? k
                                    : std::min(round_stats.knowledge_min, k);
      round_stats.knowledge_max = std::max(round_stats.knowledge_max, k);
      round_stats.knowledge_sum += k;
      ++round_stats.messages;
      round_stats.full_messages += full ? 1 : 0;
      round_stats.bytes += length;

      if (fwd.round < rounds) {
        std::uint64_t const bit = 1ull << fwd.round;
        if ((forwarded[pi] & bit) == 0) {
          forwarded[pi] |= bit;
          send_fanout(dest, fwd.round + 1);
        }
      }
    }
  }

  if (stats != nullptr) {
    *stats = local_stats;
  }
  return knowledge;
}

} // namespace tlb::lbaf
