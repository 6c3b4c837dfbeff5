/// \file knowledge_model_test.cpp
/// Seeded model test: Knowledge (arrival-ordered storage, membership
/// bitset, lazily restored rank order, the unshipped run kept as a tail)
/// must be observably identical to a sorted-vector container that lists
/// its unshipped ranks and whether it owes a full snapshot, written out
/// literally below as the reference. Random operation sequences over
/// ranks [0, 300) mix the inform plane's pattern (small packed merges,
/// each followed by a forward) with everything else the type offers;
/// after every step the two must agree on entries(), contains, load_of,
/// owes_full and every packed byte, full snapshot and delta alike.

#include "lb/knowledge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "runtime/serialize.hpp"
#include "support/rng.hpp"

namespace tlb::lb {
namespace {

constexpr RankId kRanks = 300;

/// The sorted-by-rank container, literally: every lookup is a binary
/// search, every rank it learns joins the unshipped list, and anything but
/// learning a rank owes a full snapshot.
struct SortedReference {
  std::vector<KnownRank> entries;
  /// Ranks learned since the last pack.
  std::vector<RankId> unshipped;
  bool owes_full = true;

  [[nodiscard]] std::vector<KnownRank>::iterator lower(RankId rank) {
    return std::lower_bound(
        entries.begin(), entries.end(), rank,
        [](KnownRank const& e, RankId r) { return e.rank < r; });
  }

  [[nodiscard]] KnownRank const* find(RankId rank) const {
    auto const it = std::lower_bound(
        entries.begin(), entries.end(), rank,
        [](KnownRank const& e, RankId r) { return e.rank < r; });
    return it != entries.end() && it->rank == rank ? &*it : nullptr;
  }

  void learn(std::vector<KnownRank>::iterator at, RankId rank,
             LoadType load) {
    entries.insert(at, KnownRank{rank, load});
    unshipped.push_back(rank);
  }

  void insert(RankId rank, LoadType load) {
    auto const it = lower(rank);
    if (it != entries.end() && it->rank == rank) {
      it->load = load;
      owes_full = true;
      return;
    }
    learn(it, rank, load);
  }

  /// `incoming` is sorted by rank.
  void merge(std::vector<KnownRank> const& incoming) {
    for (auto const& e : incoming) {
      auto const it = lower(e.rank);
      if (it == entries.end() || it->rank != e.rank) {
        learn(it, e.rank, e.load);
      }
    }
  }

  void add_load(RankId rank, LoadType delta) {
    lower(rank)->load += delta;
    owes_full = true;
  }

  /// entries() or load_of() on the original: reading in rank order folds
  /// any unshipped run into the rest.
  void read_in_rank_order() {
    if (!unshipped.empty()) {
      owes_full = true;
      unshipped.clear();
    }
  }

  void truncate_random(std::size_t cap, Rng& rng) {
    if (cap == 0 || entries.size() <= cap) {
      return;
    }
    for (std::size_t i = 0; i < cap; ++i) {
      auto const j = i + rng.index(entries.size() - i);
      std::swap(entries[i], entries[j]);
    }
    entries.resize(cap);
    std::sort(entries.begin(), entries.end(),
              [](KnownRank const& a, KnownRank const& b) {
                return a.rank < b.rank;
              });
    owes_full = true;
  }

  void clear() {
    entries.clear();
    unshipped.clear();
    owes_full = true;
  }

  /// What pack(_, full) emits; marks everything shipped.
  [[nodiscard]] std::vector<std::byte> pack(bool full) {
    EXPECT_TRUE(full || !owes_full);
    std::vector<KnownRank> shipped;
    for (auto const& e : entries) {
      if (full || std::find(unshipped.begin(), unshipped.end(), e.rank) !=
                      unshipped.end()) {
        shipped.push_back(e);
      }
    }
    unshipped.clear();
    owes_full = false;
    rt::Packer p;
    p.pack_varint(shipped.size());
    RankId prev = -1;
    for (auto const& e : shipped) {
      p.pack_varint(static_cast<std::uint64_t>(e.rank - prev - 1));
      prev = e.rank;
    }
    for (auto const& e : shipped) {
      p.pack(e.load);
    }
    auto const bytes = p.bytes();
    return {bytes.begin(), bytes.end()};
  }

  [[nodiscard]] static std::vector<KnownRank> unpack(
      std::span<std::byte const> bytes) {
    rt::Unpacker u{bytes};
    auto const n = static_cast<std::size_t>(u.unpack_varint());
    std::vector<KnownRank> out(n);
    RankId prev = -1;
    for (auto& e : out) {
      e.rank = prev + 1 + static_cast<RankId>(u.unpack_varint());
      prev = e.rank;
    }
    for (auto& e : out) {
      e.load = u.unpack<LoadType>();
    }
    return out;
  }
};

std::vector<std::byte> packed(Knowledge& k, bool full) {
  rt::Packer p;
  k.pack(p, full);
  auto const bytes = p.bytes();
  return {bytes.begin(), bytes.end()};
}

/// Compares on copies: the accessors restore rank order in place (which
/// folds the unshipped run), and packing marks entries shipped, so
/// checking the original would change what the next operation sees.
void expect_same(Knowledge const& knowledge, SortedReference const& ref) {
  EXPECT_EQ(knowledge.owes_full(), ref.owes_full);
  EXPECT_EQ(knowledge.size(), ref.entries.size());
  for (RankId r = -1; r <= kRanks; ++r) {
    ASSERT_EQ(knowledge.contains(r), ref.find(r) != nullptr) << "rank " << r;
  }
  Knowledge const probe = knowledge;
  for (RankId r = 0; r < kRanks; ++r) {
    if (auto const* e = ref.find(r)) {
      EXPECT_EQ(probe.load_of(r), e->load) << "rank " << r;
    }
  }
  auto const got = probe.entries();
  ASSERT_EQ(got.size(), ref.entries.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], ref.entries[i]) << i;
  }
  // The full snapshot and, when owed nothing, the delta, each packed from
  // another untouched copy.
  Knowledge full = knowledge;
  SortedReference full_ref = ref;
  EXPECT_EQ(packed(full, true), full_ref.pack(true));
  if (!ref.owes_full && !knowledge.owes_full()) {
    Knowledge delta = knowledge;
    SortedReference delta_ref = ref;
    EXPECT_EQ(packed(delta, false), delta_ref.pack(false));
  }
}

/// A source knowledge built in random arrival order, with its reference.
void random_source(Rng& rng, std::size_t n, Knowledge& source,
                   SortedReference& source_ref) {
  for (std::size_t i = 0; i < n; ++i) {
    auto const r = static_cast<RankId>(rng.index(kRanks));
    auto const load = rng.uniform(0.0, 4.0);
    source.insert(r, load);
    source_ref.insert(r, load);
  }
}

void run_sequence(std::uint64_t seed, int steps) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  Rng rng{seed};
  Knowledge k;
  SortedReference ref;

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    auto const op = rng.index(100);
    if (op < 28) {
      // merge_packed of a small full snapshot.
      Knowledge source;
      SortedReference source_ref;
      auto const n = 1 + rng.index(rng.index(4) == 0 ? 40 : 4);
      random_source(rng, n, source, source_ref);
      auto const bytes = packed(source, true);
      EXPECT_EQ(bytes, source_ref.pack(true));
      rt::Unpacker u{bytes};
      k.merge_packed(u);
      EXPECT_TRUE(u.exhausted());
      ref.merge(SortedReference::unpack(bytes));
    } else if (op < 42) {
      // A forward: a delta unless a full snapshot is owed, as the inform
      // plane packs one (the plane's hot path).
      bool const full = ref.owes_full;
      EXPECT_EQ(packed(k, full), ref.pack(full));
    } else if (op < 50) {
      auto const r = static_cast<RankId>(rng.index(kRanks));
      auto const load = rng.uniform(0.0, 4.0);
      k.insert(r, load);
      ref.insert(r, load);
    } else if (op < 60) {
      // merge_packed of another knowledge's delta: its storage is neither
      // sorted nor fresh, and its run is cut after a full snapshot.
      Knowledge source;
      SortedReference source_ref;
      random_source(rng, rng.index(30), source, source_ref);
      (void)packed(source, true);
      (void)source_ref.pack(true);
      random_source(rng, rng.index(10), source, source_ref);
      bool const full = source_ref.owes_full;
      auto const bytes = packed(source, full);
      EXPECT_EQ(bytes, source_ref.pack(full));
      rt::Unpacker u{bytes};
      k.merge_packed(u);
      ref.merge(SortedReference::unpack(bytes));
    } else if (op < 68) {
      if (!ref.entries.empty()) {
        auto const& e = ref.entries[rng.index(ref.entries.size())];
        auto const delta = rng.uniform(-1.0, 1.0);
        auto const rank = e.rank;
        k.add_load(rank, delta);
        ref.add_load(rank, delta);
      }
    } else if (op < 74) {
      auto const cap = rng.index(ref.entries.size() + 3);
      Rng draws = rng.split(static_cast<std::uint64_t>(step));
      Rng ref_draws = draws;
      k.truncate_random(cap, draws);
      ref.truncate_random(cap, ref_draws);
    } else if (op < 87) {
      // A full snapshot, as under GossipWire::full or a recovery.
      EXPECT_EQ(packed(k, true), ref.pack(true));
    } else if (op < 96) {
      // Rank-order reads on the original itself, as the transfer pass
      // makes between inform epochs (the copies in expect_same leave the
      // original's storage alone).
      if (!ref.entries.empty() && rng.index(2) == 0) {
        auto const& e = ref.entries[rng.index(ref.entries.size())];
        EXPECT_EQ(k.load_of(e.rank), e.load);
      } else {
        EXPECT_EQ(k.entries().size(), ref.entries.size());
      }
      ref.read_in_rank_order();
    } else {
      k.clear();
      ref.clear();
    }
    expect_same(k, ref);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(KnowledgeModel, MatchesTheSortedVectorReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_sequence(seed, 1500);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(KnowledgeModel, WirePayloadRoundTripsThroughMergePacked) {
  // unpack_into is clear() + merge_packed: a knowledge decoded from the
  // wire equals its source.
  Rng rng{17};
  Knowledge source;
  SortedReference source_ref;
  random_source(rng, 120, source, source_ref);
  auto const bytes = packed(source, true);
  Knowledge back;
  back.insert(5, 1.0); // stale contents to be replaced
  rt::Unpacker u{bytes};
  back.unpack_into(u);
  EXPECT_TRUE(u.exhausted());
  auto const got = back.entries();
  ASSERT_EQ(got.size(), source_ref.entries.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], source_ref.entries[i]) << i;
  }
}

} // namespace
} // namespace tlb::lb
