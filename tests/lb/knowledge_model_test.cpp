/// \file knowledge_model_test.cpp
/// Seeded model test: Knowledge (arrival-ordered storage, membership
/// bitset, lazily restored rank order, cached delta tail) must be
/// observably identical to the sorted-vector container it replaced,
/// written out literally below as the reference. Random operation
/// sequences over ranks [0, 300) mix the inform plane's pattern (small
/// packed merges, deltas at the last forward's mark) with everything
/// else the type offers; after every step the two must agree on
/// entries() (rank, load and version), contains, load_of, version_mark,
/// delta_count, the wire-size accountant and every packed byte.

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
/// search, every change stamps the entry, and a merge inserts the ranks
/// it did not know in ascending rank order, stamping each in turn.
struct SortedReference {
  std::vector<KnownRank> entries;
  std::uint32_t next_version = 1;
  bool truncated = false;

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

  void insert(RankId rank, LoadType load) {
    auto const it = lower(rank);
    if (it != entries.end() && it->rank == rank) {
      it->load = load;
      it->version = next_version++;
      return;
    }
    entries.insert(it, KnownRank{rank, next_version++, load});
  }

  /// `incoming` is sorted by rank.
  void merge(std::vector<KnownRank> const& incoming) {
    for (auto const& e : incoming) {
      auto const it = lower(e.rank);
      if (it == entries.end() || it->rank != e.rank) {
        entries.insert(it, KnownRank{e.rank, next_version++, e.load});
      }
    }
  }

  void add_load(RankId rank, LoadType delta) {
    auto const it = lower(rank);
    it->load += delta;
    it->version = next_version++;
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
    truncated = true;
  }

  void clear() {
    entries.clear();
    next_version = 1;
    truncated = false;
  }

  [[nodiscard]] std::uint32_t version_mark() const {
    return next_version - 1;
  }

  [[nodiscard]] std::vector<KnownRank> since(std::uint32_t mark) const {
    std::vector<KnownRank> out;
    for (auto const& e : entries) {
      if (e.version > mark) {
        out.push_back(e);
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<std::byte> pack(std::uint32_t mark) const {
    auto const shipped = since(mark);
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

/// pack_full at mark 0 (the first forward of an epoch), else pack_delta.
std::vector<std::byte> packed(Knowledge const& k, std::uint32_t since) {
  rt::Packer p;
  if (since == 0) {
    k.pack_full(p);
  } else {
    k.pack_delta(p, since);
  }
  auto const bytes = p.bytes();
  return {bytes.begin(), bytes.end()};
}

/// Compares on a copy: the accessors restore rank order in place, and
/// checking the original would hide the arrival-ordered storage from the
/// next operation.
void expect_same(Knowledge const& knowledge, SortedReference const& ref,
                 std::vector<std::uint32_t> const& marks, Rng& rng) {
  EXPECT_EQ(knowledge.version_mark(), ref.version_mark());
  EXPECT_EQ(knowledge.size(), ref.entries.size());
  for (std::uint32_t const mark : marks) {
    EXPECT_EQ(knowledge.delta_count(mark), ref.since(mark).size()) << mark;
  }
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
    EXPECT_EQ(got[i].rank, ref.entries[i].rank) << i;
    EXPECT_EQ(got[i].load, ref.entries[i].load) << i;
    EXPECT_EQ(got[i].version, ref.entries[i].version) << i;
  }
  // A delta at a random earlier mark, packed from another untouched copy.
  auto const mark = static_cast<std::uint32_t>(
      rng.index(static_cast<std::size_t>(ref.version_mark()) + 2));
  Knowledge const other = knowledge;
  EXPECT_EQ(packed(other, mark), ref.pack(mark)) << "since " << mark;
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
  // The forward high-water mark, as the inform plane keeps it, plus the
  // marks of every pack so far (across clears).
  std::uint32_t hwm = 0;
  std::vector<std::uint32_t> marks{0};

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    auto const op = rng.index(100);
    if (op < 28) {
      // merge_packed of a small payload (a delta, mostly).
      Knowledge source;
      SortedReference source_ref;
      auto const n = 1 + rng.index(rng.index(4) == 0 ? 40 : 4);
      random_source(rng, n, source, source_ref);
      auto const bytes = packed(source, 0);
      EXPECT_EQ(bytes, source_ref.pack(0));
      rt::Unpacker u{bytes};
      k.merge_packed(u);
      EXPECT_TRUE(u.exhausted());
      ref.merge(SortedReference::unpack(bytes));
    } else if (op < 42) {
      // pack_delta at the last forward's mark: the plane's hot path.
      EXPECT_EQ(packed(k, hwm), ref.pack(hwm));
      hwm = ref.version_mark();
      marks.push_back(hwm);
    } else if (op < 50) {
      auto const r = static_cast<RankId>(rng.index(kRanks));
      auto const load = rng.uniform(0.0, 4.0);
      k.insert(r, load);
      ref.insert(r, load);
    } else if (op < 60) {
      // merge of an arrival-ordered source, sometimes itself built by
      // packed merges (so its storage is neither sorted nor fresh).
      Knowledge source;
      SortedReference source_ref;
      random_source(rng, rng.index(30), source, source_ref);
      if (rng.index(2) == 0) {
        Knowledge more;
        SortedReference more_ref;
        random_source(rng, rng.index(10), more, more_ref);
        auto const bytes = more_ref.pack(0);
        rt::Unpacker u{bytes};
        source.merge_packed(u);
        source_ref.merge(SortedReference::unpack(bytes));
      }
      k.merge(source);
      ref.merge(source_ref.entries);
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
      EXPECT_EQ(k.take_truncated(), ref.truncated);
      ref.truncated = false;
    } else if (op < 80) {
      // pack_full, then the plane's next forward packs from its mark.
      EXPECT_EQ(packed(k, 0), ref.pack(0));
      hwm = ref.version_mark();
      marks.push_back(hwm);
    } else if (op < 87) {
      // pack_delta at an arbitrary mark: earlier, past the current one,
      // or from before the last clear().
      auto const mark = marks[rng.index(marks.size())] +
                        static_cast<std::uint32_t>(rng.index(3));
      if (rng.index(2) == 0) {
        EXPECT_EQ(k.wire_bytes_delta(mark), ref.pack(mark).size());
      } else {
        EXPECT_EQ(packed(k, mark), ref.pack(mark));
      }
    } else if (op < 90) {
      auto const mark = marks[rng.index(marks.size())];
      auto const copy = k.delta_copy(mark);
      auto const expect = ref.since(mark);
      auto const got = copy.entries();
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].rank, expect[i].rank);
        EXPECT_EQ(got[i].load, expect[i].load);
        EXPECT_EQ(got[i].version, static_cast<std::uint32_t>(i) + 1);
      }
    } else if (op < 96) {
      // Rank-order reads on the original itself, as the transfer pass
      // makes between inform epochs (the copies in expect_same leave the
      // original's storage alone).
      if (!ref.entries.empty()) {
        auto const& e = ref.entries[rng.index(ref.entries.size())];
        EXPECT_EQ(k.load_of(e.rank), e.load);
      }
      EXPECT_EQ(k.entries().size(), ref.entries.size());
    } else {
      // Marks from before the clear stay candidates for later deltas.
      k.clear();
      ref.clear();
      hwm = 0;
    }
    expect_same(k, ref, marks, rng);
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
  // wire equals its source, restamped 1..n in rank order.
  Rng rng{17};
  Knowledge source;
  SortedReference source_ref;
  random_source(rng, 120, source, source_ref);
  auto const bytes = packed(source, 0);
  Knowledge back;
  back.insert(5, 1.0); // stale contents to be replaced
  rt::Unpacker u{bytes};
  back.unpack_into(u);
  EXPECT_TRUE(u.exhausted());
  auto const got = back.entries();
  ASSERT_EQ(got.size(), source_ref.entries.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].rank, source_ref.entries[i].rank);
    EXPECT_EQ(got[i].load, source_ref.entries[i].load);
    EXPECT_EQ(got[i].version, static_cast<std::uint32_t>(i) + 1);
  }
}

} // namespace
} // namespace tlb::lb
