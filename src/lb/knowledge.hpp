#pragma once

/// \file knowledge.hpp
/// The partial-information state a rank accumulates during the gossip
/// stage: the set S^p of known (initially underloaded) ranks and the
/// LOAD^p() map of their last-known loads (Algorithm 1).
///
/// Entries are stored in arrival order next to a membership bitset, so a
/// merge costs O(|payload|): it tests each incoming rank's bit and appends
/// only the unknown ones. Rank order is restored in place where a reader
/// first needs it (entries(), load_of, add_load, truncation, packing), and
/// every observable result — entries(), the packed bytes — is what a
/// container kept sorted by rank would give.
///
/// Between two forwards, Algorithm 1 only appends to a rank's knowledge,
/// so what a forward has not shipped yet is the run appended since the
/// previous pack: pack(packer, false) ships that run (a few entries,
/// sorted by rank and encoded), pack(packer, true) ships every entry, and
/// either marks every entry shipped. Anything but an append leaves a
/// receiver of the earlier packs short of more than that run, so the
/// knowledge then owes a full snapshot (owes_full()): after clear(), a
/// truncation that dropped entries, an overwriting insert, an add_load,
/// or a rank-order read (entries(), load_of) while entries are unshipped,
/// which folds the run into the rest of the storage. This is the
/// delta-encoded gossip wire plane's bookkeeping (DESIGN.md "Gossip wire
/// plane").
///
/// Wire format (pack, full snapshot or delta alike):
///
///   varint n                       entry count
///   n x varint                     rank ids, delta-coded over the sorted
///                                  list: first absolute, then
///                                  rank[i] - rank[i-1] - 1 (ids strictly
///                                  increase, so the -1 tightens density)
///   n x f64                        raw little-endian loads, same order
///
/// Reordering is a cache: const members may permute the entry storage, so
/// one Knowledge must not be read from two threads at once (the inform
/// plane confines each rank's knowledge to that rank's handlers).

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/serialize.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tlb::lb {

/// One entry of LOAD^p(): a known peer and its last-known load.
struct KnownRank {
  RankId rank = invalid_rank;
  LoadType load = 0.0;

  friend bool operator==(KnownRank const&, KnownRank const&) = default;
};

/// Collection of known peers with at most one entry per rank
/// (|S^p| == |LOAD^p()| by construction, the paper's Require).
class Knowledge {
public:
  Knowledge() = default;

  /// Insert or overwrite the load for a rank. An overwrite owes a full
  /// snapshot.
  void insert(RankId rank, LoadType load);

  /// Decode a pack() payload and merge it: an incoming load is kept only
  /// when the rank was unknown, because a rank's own local updates
  /// (speculative transfers it directed at the peer) are fresher than
  /// gossiped initial loads. O(payload), without materializing it, and
  /// allocation-free once capacity suffices. The entry count and every
  /// rank id are untrusted and checked before use.
  void merge_packed(rt::Unpacker& unpacker);

  /// Add `delta` to a known rank's load. Precondition: rank is known.
  /// Owes a full snapshot.
  void add_load(RankId rank, LoadType delta);

  [[nodiscard]] bool contains(RankId rank) const;
  /// Last-known load; precondition: rank is known.
  [[nodiscard]] LoadType load_of(RankId rank) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Every entry, sorted by rank (ids strictly increasing).
  [[nodiscard]] std::span<KnownRank const> entries() const {
    sort_by_rank();
    return entries_;
  }
  /// Every entry in storage order, which is unspecified: for a reader
  /// whose result does not depend on order (a minimum, a maximum), so it
  /// skips the sort entries() may do.
  [[nodiscard]] std::span<KnownRank const> unordered_entries() const {
    return entries_;
  }

  /// Forget every entry; the next pack is a full snapshot. Capacity is
  /// retained, so a cleared-and-refilled knowledge allocates only while
  /// growing past its historical maximum.
  void clear();

  /// Bound the knowledge to a uniformly random `cap`-subset (cap == 0
  /// means unlimited). This is the footnote-2 bounded-knowledge variant
  /// the gossip stage uses: random subsets keep per-rank target sets
  /// de-correlated (the footnote's random-graph connectivity argument),
  /// where keeping the lightest entries would give every rank the same
  /// targets and herd transfers onto them (EXPERIMENTS.md E11). The draw
  /// runs over the entries in rank order. Dropping entries owes a full
  /// snapshot, which re-offers the survivors to the rank's peers instead
  /// of silently never mentioning them again.
  void truncate_random(std::size_t cap, Rng& rng);

  /// Pre-size for ranks [0, n): the entry vector holds `n` entries and
  /// the bitset covers n ranks without reallocating. The inform plane
  /// reserves to P so steady-state merges never touch the allocator.
  void reserve(std::size_t n);

  // --- Wire format ---

  /// An upper bound on the bytes any packed payload of up to `n` entries
  /// can occupy: a 5-byte count varint plus, per entry, a 5-byte id gap
  /// and a raw f64 load. Deliberately loose (real gap varints are almost
  /// always one byte): its job is to let buffers be reserved once and
  /// never grow, not to model traffic.
  [[nodiscard]] static constexpr std::size_t wire_capacity_bound(
      std::size_t n) {
    return 5 + n * (5 + sizeof(double));
  }

  /// True when only a full snapshot brings a receiver of every earlier
  /// pack up to date (see the file comment); pack() clears it.
  [[nodiscard]] bool owes_full() const { return owes_full_; }

  /// Serialize every entry (`full`) or the run appended since the previous
  /// pack, then mark every entry shipped. Precondition: `full` or
  /// !owes_full(). The distributed gossip ships knowledge through real
  /// bytes so the protocol is proven serialization-clean.
  void pack(rt::Packer& packer, bool full);

  /// Deserialize a pack() payload into a fresh knowledge.
  [[nodiscard]] static Knowledge unpack(rt::Unpacker& unpacker);

  /// Deserialize into *this*, replacing its contents but reusing its
  /// capacity: clear() followed by merge_packed().
  void unpack_into(rt::Unpacker& unpacker) {
    clear();
    merge_packed(unpacker);
  }

private:
  /// Append an entry for `rank` unless the rank is already known; true
  /// when it appended.
  bool append_unknown(RankId rank, LoadType load);
  /// Restore rank order over the whole storage, which folds any unshipped
  /// run into the shipped entries.
  void sort_by_rank() const;
  /// Sort entries_[from, end) by rank and update sorted_.
  void sort_from(std::size_t from) const;
  /// Index of a known rank's entry (rank order restored first).
  [[nodiscard]] std::size_t index_of(RankId rank) const;

  /// Arrival order, except where a reader restored rank order. Mutable
  /// because that order is a cache: every accessor reads rank order.
  mutable std::vector<KnownRank> entries_;
  /// entries_[0, sorted_) is strictly increasing by rank.
  mutable std::size_t sorted_ = 0;
  /// Unless owes_full_, entries_[run_begin_, end) is exactly what the
  /// previous pack did not ship: appends extend it, pack() empties it.
  mutable std::size_t run_begin_ = 0;
  mutable bool owes_full_ = true;
  /// Bit r set iff rank r is known; grows to cover the largest rank seen.
  std::vector<std::uint64_t> members_;
};

} // namespace tlb::lb
