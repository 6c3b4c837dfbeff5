#include "lb/strategy/inform_plane.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <type_traits>

#include "obs/lb_report.hpp"
#include "support/assert.hpp"

namespace tlb::lb {

namespace {

/// Worst-case bytes pack_forward prepends to a packed knowledge payload: a
/// round-number varint (10 bytes covers any u64) plus the full/delta flag
/// byte.
constexpr std::size_t kHeaderBound = 11;

/// Bytes one rank's forwarding events can take in one epoch, so its arena
/// is reserved once and never grows. A rank forwards at most once per
/// round (the `forwarded` bitmask), and a forward happens after the
/// receive's truncation, so a payload holds at most min(cap, P) entries
/// when capped and P otherwise. Uncapped delta payloads do better: an
/// inform epoch only appends, so after the first forward's snapshot each
/// entry is shipped by exactly one forward's run, and the payloads
/// partition at most P entries. That bounds the epoch at
/// rounds·(kHeaderBound + 5) + 13P bytes rather than
/// rounds·(13P + 16).
std::size_t arena_bound(RankId num_ranks, int rounds, GossipWire wire,
                        std::size_t max_knowledge) {
  auto const p = static_cast<std::size_t>(num_ranks);
  auto const k = static_cast<std::size_t>(rounds);
  auto const forward_bound = [](std::size_t entries) {
    return kHeaderBound + Knowledge::wire_capacity_bound(entries);
  };
  if (wire == GossipWire::delta && max_knowledge == 0) {
    return (k - 1) * forward_bound(0) + forward_bound(p);
  }
  return k * forward_bound(max_knowledge == 0 ? p
                                              : std::min(max_knowledge, p));
}

} // namespace

void draw_peers(std::vector<RankId>& peers, RankId num_ranks, RankId self,
                int fanout, Rng& rng) {
  peers.clear();
  auto const want = static_cast<std::size_t>(
      std::min<RankId>(static_cast<RankId>(fanout), num_ranks - 1));
  while (peers.size() < want) {
    auto const peer = static_cast<RankId>(
        rng.uniform_below(static_cast<std::uint64_t>(num_ranks)));
    if (peer != self &&
        std::find(peers.begin(), peers.end(), peer) == peers.end()) {
      peers.push_back(peer);
    }
  }
}

void pack_forward(rt::Packer& packer, Knowledge& knowledge, int round,
                  GossipWire wire) {
  bool const full = wire == GossipWire::full || knowledge.owes_full();
  packer.pack_varint(static_cast<std::uint64_t>(round));
  packer.pack(static_cast<std::uint8_t>(full ? 1 : 0));
  // An empty delta still goes out: the message itself is what keeps the
  // receipt-triggered cascade alive (Algorithm 1's round gating), and it
  // costs ~3 bytes.
  knowledge.pack(packer, full);
}

bool merge_forward(std::span<std::byte const> bytes, int round,
                   Knowledge& knowledge) {
  rt::Unpacker unpacker{bytes};
  auto const header_round = unpacker.unpack_varint();
  TLB_ASSERT(header_round == static_cast<std::uint64_t>(round));
  bool const full = unpacker.unpack<std::uint8_t>() != 0;
  knowledge.merge_packed(unpacker);
  TLB_ASSERT(unpacker.exhausted());
  return full;
}

InformPlane::InformPlane(RankId num_ranks, std::uint64_t root_seed,
                         GossipWire wire, int fanout, int rounds,
                         std::size_t max_knowledge,
                         obs::LbReportBuilder* report)
    : slots_(static_cast<std::size_t>(num_ranks)),
      wire_{wire},
      fanout_{fanout},
      rounds_{rounds},
      max_knowledge_{max_knowledge},
      report_{report} {
  TLB_EXPECTS(rounds >= 1);
  Rng const gossip_root = Rng{root_seed}.split(kGossipStreamTag);
  // Steady-state inform rounds must not allocate, so every capacity is
  // grown to its bound up front: knowledge to P entries (the most any
  // rank can ever learn) and the arena to arena_bound. Transient per
  // balance().
  auto const arena_capacity =
      arena_bound(num_ranks, rounds, wire, max_knowledge);
  // A forward's length rides in its messages as 32 bits.
  TLB_EXPECTS(arena_capacity <= std::numeric_limits<std::uint32_t>::max());
  for (RankId r = 0; r < num_ranks; ++r) {
    auto& slot = slots_[static_cast<std::size_t>(r)];
    slot.rng = gossip_root.split(static_cast<std::uint64_t>(r));
    slot.knowledge.reserve(static_cast<std::size_t>(num_ranks));
    slot.arena.reserve(arena_capacity);
    slot.peers.reserve(static_cast<std::size_t>(
        std::min<RankId>(static_cast<RankId>(fanout), num_ranks)));
  }
}

void InformPlane::reset_epoch() {
  auto const p = static_cast<RankId>(slots_.size());
  for (RankId r = 0; r < p; ++r) {
    Slot& slot = slots_[static_cast<std::size_t>(r)];
    slot.knowledge.clear();
    slot.arena.clear(); // nothing is in flight: no reader is left
    slot.forwarded = 0;
    // The epoch's fixed peer set. Reusing one overlay for every forward
    // of the epoch is what makes delta payloads exactly equivalent to
    // full resend (each peer receives the whole contiguous forward
    // sequence); see the file comment.
    draw_peers(slot.peers, p, r, fanout_, slot.rng);
  }
}

void InformPlane::seed_and_forward(rt::RankContext& ctx, LoadType load) {
  auto& slot = slots_[static_cast<std::size_t>(ctx.rank())];
  slot.knowledge.insert(ctx.rank(), load);
  slot.forwarded |= 1ull;
  forward(ctx, 1);
}

void InformPlane::forward(rt::RankContext& ctx, int next_round) {
  auto& slot = slots_[static_cast<std::size_t>(ctx.rank())];
  // Serialize once per forwarding event; the f messages name the same
  // arena bytes (they carry identical wire data). Receivers deserialize,
  // proving the protocol serialization-clean.
  auto const offset = slot.arena.size();
  rt::Packer packer{slot.arena};
  pack_forward(packer, slot.knowledge, next_round, wire_);
  // The receipt reads only these bytes: the arena never reallocates, and
  // it is rewound only at the next epoch, after quiescence.
  auto const deliver =
      [plane = this, payload = slot.arena.data() + offset,
       length = static_cast<std::uint32_t>(slot.arena.size() - offset),
       next_round](rt::RankContext& c) {
        plane->receive(c, payload, length, next_round);
      };
  static_assert(sizeof(deliver) == 24 &&
                std::is_trivially_copyable_v<decltype(deliver)>);
  for (RankId const dest : slot.peers) {
    ctx.send(dest, slot.arena.size() - offset, deliver,
             rt::MessageKind::gossip);
  }
}

void InformPlane::receive(rt::RankContext& ctx, std::byte const* payload,
                          std::uint32_t length, int round) {
  auto& slot = slots_[static_cast<std::size_t>(ctx.rank())];
  bool const full = merge_forward({payload, length}, round, slot.knowledge);
  slot.knowledge.truncate_random(max_knowledge_, slot.rng);
  if (report_ != nullptr) {
    report_->on_gossip_message(round, length, slot.knowledge.size(), full);
  }
  if (round < rounds_) {
    std::uint64_t const bit = 1ull << round;
    if ((slot.forwarded & bit) == 0) {
      slot.forwarded |= bit;
      forward(ctx, round + 1);
    }
  }
}

} // namespace tlb::lb
