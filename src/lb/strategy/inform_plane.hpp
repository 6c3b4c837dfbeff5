#pragma once

/// \file inform_plane.hpp
/// The distributed inform stage of Algorithm 1, factored out of the
/// gossip strategy as its own protocol plane: per-rank knowledge, the
/// round-gated forwarding cascade, and the delta-encoded wire format.
///
/// Three properties define the plane (see DESIGN.md "Gossip wire plane"):
///
/// 1. *Deltas by append run.* In GossipWire::delta mode a forward ships
///    only the run its knowledge appended since the previous forward
///    (Knowledge::pack). The first forward of an epoch, and any forward
///    after a truncation that dropped entries, ship a full snapshot
///    instead (Knowledge::owes_full, the recovery rule).
///
/// 2. *A per-epoch overlay on a dedicated RNG stream.* Each rank draws
///    its f gossip peers (draw_peers) once per epoch from
///    Rng{seed}.split(kGossipStreamTag).split(rank) — never from the
///    rank's main runtime stream — and every forwarding event of the
///    epoch fans out to that same set. Fixing the overlay makes the
///    delta wire *exactly* equivalent to full resend: every peer
///    receives the sender's whole forward sequence, so the contiguous
///    deltas (full snapshot first, deltas after) union to precisely the
///    full-resend payloads edge by edge, and per-rank knowledge is
///    identical under both modes at every protocol step (pinned by the
///    equivalence tests; the footnote-2 cap breaks the induction and is
///    the documented exception). The overlay also keeps routing
///    knowledge-independent and the transfer/CMF stream untouched.
///
/// 3. *Zero steady-state allocation, no refcounts.* Each rank packs its
///    forwarding events, header and payload, back to back into its own
///    epoch arena, reserved once to a bound no epoch can exceed (see
///    arena_bound in inform_plane.cpp); an arena-mode rt::Packer aborts
///    rather than reallocate. A message carries {plane, payload pointer,
///    length, round}, 24 bytes, and the receiver decodes those bytes
///    straight into its knowledge (merge_forward) without touching the
///    sender's Slot. The bytes need no owner count: every
///    epoch ends with run_until_quiescent, which returns only once
///    nothing is in flight, and reset_epoch rewinds the arenas only then.
///    After warm-up, inform epochs perform no heap allocations (pinned by
///    the allocation-counter test).
///
/// Thread-confinement: each Slot is mutated only by handlers executing on
/// its own rank. The one cross-rank read is a forward's arena bytes, read
/// by each receiver of the message that names them. The owner writes them
/// before sending, and never rewrites them within the epoch.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lb/knowledge.hpp"
#include "lb/lb_types.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tlb::obs {
class LbReportBuilder;
}

namespace tlb::lb {

/// Stream tag for the gossip plane's RNG split (far outside the per-rank
/// tag space 0..P-1, like rt::kFaultStreamTag).
inline constexpr std::uint64_t kGossipStreamTag = 0x6055'0000'0000'0001ull;

/// Draw `self`'s gossip peers for one inform epoch: min(fanout, P-1)
/// distinct ranks other than `self`, uniform without replacement
/// (rejection over uniform_below(P)), into `peers`, reusing its capacity.
/// Every forwarding event of the epoch fans out to this set. The plane
/// and the sequential emulator (lbaf::run_gossip) both draw here, each
/// from its own stream.
void draw_peers(std::vector<RankId>& peers, RankId num_ranks, RankId self,
                int fanout, Rng& rng);

/// Pack one forwarding event: the round as a varint, a flag byte (1 for a
/// full snapshot), then the knowledge payload. It is a full snapshot
/// under GossipWire::full or when the knowledge owes one.
void pack_forward(rt::Packer& packer, Knowledge& knowledge, int round,
                  GossipWire wire);

/// Merge the forwarding event `bytes` (pack_forward), sent at `round`,
/// into `knowledge`; true when it was a full snapshot.
bool merge_forward(std::span<std::byte const> bytes, int round,
                   Knowledge& knowledge);

/// One inform plane serves every epoch of one balance() invocation. Its
/// messages point back at it, so the caller keeps it alive, and in
/// place, until the last run_until_quiescent of the invocation returns.
class InformPlane {
public:
  InformPlane(RankId num_ranks, std::uint64_t root_seed, GossipWire wire,
              int fanout, int rounds, std::size_t max_knowledge,
              obs::LbReportBuilder* report);
  InformPlane(InformPlane const&) = delete;
  InformPlane& operator=(InformPlane const&) = delete;

  /// Driver-side, at a quiescent point: wipe per-rank knowledge and
  /// forwarding state for the next inform epoch. Capacities (entry
  /// vectors, arenas) survive, so epochs after the first do not
  /// allocate. RNG streams deliberately run on across epochs, matching
  /// how the per-rank runtime streams behave.
  void reset_epoch();

  /// Handler-side, on an underloaded rank: adopt own (rank, load) into
  /// the knowledge and start the cascade (Algorithm 1 lines 9-12).
  void seed_and_forward(rt::RankContext& ctx, LoadType load);

  /// The rank's accumulated knowledge; mutable because the transfer pass
  /// applies speculative load updates through it (run_transfer).
  [[nodiscard]] Knowledge& knowledge_of(RankId rank) {
    return slots_[static_cast<std::size_t>(rank)].knowledge;
  }

private:
  /// Per-rank protocol state; mutated only by handlers on its own rank.
  struct Slot {
    Knowledge knowledge;
    /// This epoch's forwarding events, header and payload each, back to
    /// back; reserved once, never reallocated, so a message may point
    /// into it.
    std::vector<std::byte> arena;
    /// Dedicated gossip RNG (see file comment, property 2).
    Rng rng;
    /// The epoch's fixed peer set (the random f-out overlay); every
    /// forwarding event fans out to exactly these ranks.
    std::vector<RankId> peers;
    std::uint64_t forwarded = 0; ///< bitmask of rounds already forwarded
  };

  /// One forwarding event: serialize once (full or delta) into the
  /// arena, then fan out f messages naming it.
  void forward(rt::RankContext& ctx, int next_round);

  /// Delivery of a round-`round` forward on the destination rank:
  /// `length` bytes at `payload`, in the sender's arena.
  void receive(rt::RankContext& ctx, std::byte const* payload,
               std::uint32_t length, int round);

  std::vector<Slot> slots_;
  GossipWire wire_;
  int fanout_;
  int rounds_;
  std::size_t max_knowledge_; ///< 0 = unlimited (footnote-2 cap)
  obs::LbReportBuilder* report_; ///< optional introspection sink
};

} // namespace tlb::lb
