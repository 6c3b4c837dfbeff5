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
/// every observable result — entries(), the packed bytes, the version
/// stamps — is what a container kept sorted by rank would give.
///
/// Entries carry an owner-local, monotone *version stamp*: every insert,
/// overwrite, load update, or merge-in of a previously unknown rank
/// stamps the affected entry with the next value of the owner's version
/// counter (the fresh ranks of one merge in ascending rank order).
/// Versions never travel on the wire (each owner stamps its own copy);
/// they exist so a forwarding event can ship only the entries that are
/// new or changed since its last forwarding event — the delta-encoded
/// gossip wire plane (see DESIGN.md "Gossip wire plane"). While a rank
/// only merges, those entries are exactly the run appended since the last
/// pack, which is sorted by rank (a few entries) and encoded.
///
/// Wire format (pack_full/pack_delta, shared layout):
///
///   varint n                       entry count
///   n x varint                     rank ids, delta-coded over the sorted
///                                  list: first absolute, then
///                                  rank[i] - rank[i-1] - 1 (ids strictly
///                                  increase, so the -1 tightens density)
///   n x f64                        raw little-endian loads, same order
///
/// wire_bytes()/wire_bytes_delta() are computed by the same per-entry
/// size arithmetic pack() emits, asserted equal at pack time, so the
/// modeled traffic can never drift from the serialized truth.
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

/// One entry of LOAD^p(): a known peer, its last-known load, and the
/// owner-local version stamp of the last change to this entry.
struct KnownRank {
  KnownRank() = default;
  KnownRank(RankId r, LoadType l) : rank{r}, load{l} {}
  KnownRank(RankId r, std::uint32_t v, LoadType l)
      : rank{r}, version{v}, load{l} {}

  RankId rank = invalid_rank;
  /// Monotone per-owner change stamp (not semantic state: two knowledge
  /// sets with the same ranks and loads are equal regardless of the
  /// insertion order that produced them, so == ignores it).
  std::uint32_t version = 0;
  LoadType load = 0.0;

  friend bool operator==(KnownRank const& a, KnownRank const& b) {
    return a.rank == b.rank && a.load == b.load;
  }
};
static_assert(sizeof(KnownRank) == 16,
              "version must live in what used to be struct padding");

/// Collection of known peers with at most one entry per rank
/// (|S^p| == |LOAD^p()| by construction, the paper's Require).
class Knowledge {
public:
  Knowledge() = default;

  /// Insert or overwrite the load for a rank. Stamps the entry.
  void insert(RankId rank, LoadType load);

  /// Merge another rank's knowledge. Existing entries keep the *incoming*
  /// load only when we did not already know the rank: a rank's own local
  /// updates (speculative transfers it directed at the peer) are fresher
  /// than gossiped initial loads. Newly learned entries are stamped in
  /// ascending rank order. Allocation-free once capacity suffices.
  void merge(Knowledge const& other);

  /// Decode a pack_full/pack_delta payload and merge it under merge()'s
  /// rule, without materializing the payload: O(payload) and
  /// allocation-free once capacity suffices. The entry count and every
  /// rank id are untrusted and checked before use.
  void merge_packed(rt::Unpacker& unpacker);

  /// Add `delta` to a known rank's load. Precondition: rank is known.
  /// Stamps the entry (its value changed).
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

  /// Forget everything: entries, version counter, truncation flag.
  /// Capacity is retained, so a cleared-and-refilled knowledge allocates
  /// only while growing past its historical maximum.
  void clear();

  /// Bound the knowledge to a uniformly random `cap`-subset (cap == 0
  /// means unlimited). This is the footnote-2 bounded-knowledge variant
  /// the gossip stage uses: random subsets keep per-rank target sets
  /// de-correlated (the footnote's random-graph connectivity argument),
  /// where keeping the lightest entries would give every rank the same
  /// targets and herd transfers onto them (EXPERIMENTS.md E11). The draw
  /// runs over the entries in rank order.
  void truncate_random(std::size_t cap, Rng& rng);

  // --- Versioning (the delta wire plane's bookkeeping) ---

  /// The stamp covering every current entry: entries with
  /// version > version_mark() cannot exist. A forwarding event records
  /// this as its high-water mark after packing.
  [[nodiscard]] std::uint32_t version_mark() const {
    return next_version_ - 1;
  }

  /// True when entries were dropped by truncation since the flag was last
  /// consumed; reading clears it. Forwarding events use this to fall back
  /// to a full snapshot after truncation, the recovery rule that keeps
  /// bounded-knowledge (footnote 2) runs re-offering dropped entries
  /// instead of silently never mentioning them again.
  [[nodiscard]] bool take_truncated() {
    bool const t = truncated_;
    truncated_ = false;
    return t;
  }

  /// Number of entries stamped after `since` (what pack_delta would ship).
  [[nodiscard]] std::size_t delta_count(std::uint32_t since) const;

  /// A knowledge holding copies of the entries stamped after `since`
  /// (freshly stamped 1..k in rank order). The sequential gossip
  /// emulation uses this to model delta payloads; the runtime protocol
  /// packs straight to bytes.
  [[nodiscard]] Knowledge delta_copy(std::uint32_t since) const;

  /// Pre-size for ranks [0, n): the entry vector holds `n` entries and
  /// the bitset covers n ranks without reallocating. The inform plane
  /// reserves to P so steady-state merges never touch the allocator.
  void reserve(std::size_t n);

  // --- Wire format ---

  /// An upper bound on the bytes any packed payload of up to `n` entries
  /// can occupy: a 5-byte count varint plus, per entry, a 5-byte id gap
  /// and a raw f64 load. Deliberately loose (real gap varints are almost
  /// always one byte) — its job is to let buffers be reserved once and
  /// never grow, not to model traffic; wire_bytes() stays the accountant.
  [[nodiscard]] static constexpr std::size_t wire_capacity_bound(
      std::size_t n) {
    return 5 + n * (5 + sizeof(double));
  }

  /// Exact bytes pack_full() emits (varint count + delta-coded ids + raw
  /// f64 loads). This is the accounting function for network modeling;
  /// pack asserts against it.
  [[nodiscard]] std::size_t wire_bytes() const {
    return encoded_bytes(0);
  }

  /// Exact bytes pack_delta(_, since) emits.
  [[nodiscard]] std::size_t wire_bytes_delta(std::uint32_t since) const {
    return encoded_bytes(since);
  }

  /// Serialize every entry; the distributed gossip ships knowledge
  /// through real bytes so the protocol is proven serialization-clean.
  void pack_full(rt::Packer& packer) const { pack_since(packer, 0); }

  /// Serialize only the entries stamped after `since` (the delta since a
  /// forwarding event whose high-water mark was `since`).
  void pack_delta(rt::Packer& packer, std::uint32_t since) const {
    pack_since(packer, since);
  }

  /// Deserialize; inverse of pack_full/pack_delta. Received entries are
  /// stamped 1..n (wire messages carry no versions — stamps are local).
  [[nodiscard]] static Knowledge unpack(rt::Unpacker& unpacker);

  /// Deserialize into *this*, replacing its contents but reusing its
  /// capacity: clear() followed by merge_packed().
  void unpack_into(rt::Unpacker& unpacker) {
    clear();
    merge_packed(unpacker);
  }

private:
  /// Append an entry for `rank` with the next stamp unless the rank is
  /// already known; true when it appended.
  bool append_unknown(RankId rank, LoadType load);
  /// Restore rank order over the whole storage.
  void sort_by_rank() const;
  /// Sort entries_[from, end) by rank and update sorted_.
  void sort_from(std::size_t from) const;
  /// The entries stamped after `since`, in rank order, as the contiguous
  /// tail entries_[run_begin_, end) (rearranging storage if needed).
  [[nodiscard]] std::span<KnownRank const> delta_run(
      std::uint32_t since) const;
  /// Mark everything currently held as shipped: the next delta_run is the
  /// run appended from here on.
  void close_run() const {
    run_begin_ = entries_.size();
    run_mark_ = version_mark();
  }
  /// Index of a known rank's entry (rank order restored first).
  [[nodiscard]] std::size_t index_of(RankId rank) const;
  void pack_since(rt::Packer& packer, std::uint32_t since) const;
  [[nodiscard]] std::size_t encoded_bytes(std::uint32_t since) const;

  /// Arrival order, except where a reader restored rank order. Mutable
  /// because that order is a cache: every accessor reads rank order.
  mutable std::vector<KnownRank> entries_;
  /// entries_[0, sorted_) is strictly increasing by rank.
  mutable std::size_t sorted_ = 0;
  /// The entries stamped after run_mark_ are exactly
  /// entries_[run_begin_, end): appends keep this true, and packing a
  /// delta at run_mark_ ships that tail without scanning the rest.
  mutable std::size_t run_begin_ = 0;
  mutable std::uint32_t run_mark_ = 0;
  /// Bit r set iff rank r is known; grows to cover the largest rank seen.
  std::vector<std::uint64_t> members_;
  /// Next stamp to hand out; 0 is reserved as "before everything".
  std::uint32_t next_version_ = 1;
  /// Set when truncation actually dropped entries; consumed by
  /// take_truncated().
  bool truncated_ = false;
};

} // namespace tlb::lb
