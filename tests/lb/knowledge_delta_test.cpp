#include "lb/knowledge.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "runtime/serialize.hpp"
#include "support/rng.hpp"

namespace tlb::lb {
namespace {

/// The bytes `k.pack(_, full)` emits (packing marks `k`'s entries
/// shipped).
std::vector<std::byte> pack(Knowledge& k, bool full) {
  rt::Packer p;
  k.pack(p, full);
  auto const bytes = p.bytes();
  return {bytes.begin(), bytes.end()};
}

/// The ranks a packed payload carries, in wire order.
std::vector<RankId> ranks_of(std::vector<std::byte> const& bytes) {
  rt::Unpacker u{bytes};
  Knowledge k;
  k.merge_packed(u);
  EXPECT_TRUE(u.exhausted());
  std::vector<RankId> out;
  for (auto const& e : k.entries()) {
    out.push_back(e.rank);
  }
  return out;
}

TEST(KnowledgeDelta, FreshKnowledgeOwesAFullSnapshot) {
  Knowledge k;
  EXPECT_TRUE(k.owes_full());
  k.insert(3, 1.0);
  EXPECT_TRUE(k.owes_full()); // appending does not settle the debt
  EXPECT_EQ(ranks_of(pack(k, true)), std::vector<RankId>{3});
  EXPECT_FALSE(k.owes_full());
}

TEST(KnowledgeDelta, FirstPackAfterClearIsFull) {
  // The inform plane keeps no flag of its own: clear() at the start of an
  // epoch is what makes the epoch's first forward a full snapshot.
  Knowledge k;
  k.insert(1, 1.0);
  k.insert(2, 2.0);
  (void)pack(k, true);
  k.insert(4, 4.0);
  EXPECT_FALSE(k.owes_full());
  k.clear();
  EXPECT_TRUE(k.owes_full());
  k.insert(5, 1.0);
  k.insert(6, 2.0);
  EXPECT_TRUE(k.owes_full());
  EXPECT_EQ(ranks_of(pack(k, k.owes_full())), (std::vector<RankId>{5, 6}));
  EXPECT_FALSE(k.owes_full());
}

TEST(KnowledgeDelta, DeltaShipsTheRunAppendedSinceThePreviousPack) {
  Knowledge k;
  k.insert(10, 1.0);
  k.insert(20, 2.0);
  (void)pack(k, true);
  k.insert(15, 0.5);
  k.insert(5, 0.25);
  EXPECT_FALSE(k.owes_full());
  // The run goes out sorted by rank; entries shipped earlier stay home.
  EXPECT_EQ(ranks_of(pack(k, false)), (std::vector<RankId>{5, 15}));
  k.insert(30, 3.0);
  EXPECT_EQ(ranks_of(pack(k, false)), std::vector<RankId>{30});
  // A full snapshot ships everything and also marks it shipped.
  EXPECT_EQ(ranks_of(pack(k, true)),
            (std::vector<RankId>{5, 10, 15, 20, 30}));
  EXPECT_TRUE(ranks_of(pack(k, false)).empty());
}

TEST(KnowledgeDelta, EmptyDeltaIsTheZeroCount) {
  // An empty delta still travels (it keeps the round-gated cascade
  // alive) and costs one byte.
  Knowledge k;
  k.insert(7, 1.0);
  (void)pack(k, true);
  EXPECT_EQ(pack(k, false), std::vector<std::byte>{std::byte{0}});
}

TEST(KnowledgeDelta, MergeShipsOnlyTheFreshRanks) {
  Knowledge mine;
  mine.insert(1, 5.0);
  mine.insert(4, 2.0);
  (void)pack(mine, true);

  Knowledge incoming;
  incoming.insert(1, 9.0); // already known: the local value wins
  incoming.insert(2, 3.0);
  incoming.insert(6, 4.0);
  auto const bytes = pack(incoming, true);
  rt::Unpacker u{bytes};
  mine.merge_packed(u);

  EXPECT_FALSE(mine.owes_full()); // a merge only appends
  EXPECT_EQ(ranks_of(pack(mine, false)), (std::vector<RankId>{2, 6}));
  EXPECT_DOUBLE_EQ(mine.load_of(1), 5.0);
}

TEST(KnowledgeDelta, PackAfterAddLoadIsFull) {
  // A changed load is not in the appended run, so a delta would leave
  // receivers with the old value: the next pack must be a full snapshot.
  // Nothing is unshipped when the load changes, so the change alone owes
  // it.
  Knowledge k;
  k.insert(10, 1.0);
  k.insert(20, 2.0);
  (void)pack(k, true);
  k.add_load(20, 0.25);
  EXPECT_TRUE(k.owes_full());
  auto const bytes = pack(k, k.owes_full());
  ASSERT_EQ(ranks_of(bytes), (std::vector<RankId>{10, 20}));
  rt::Unpacker u{bytes};
  Knowledge receiver;
  receiver.merge_packed(u);
  EXPECT_DOUBLE_EQ(receiver.load_of(20), 2.25);
  EXPECT_FALSE(k.owes_full());
}

TEST(KnowledgeDelta, PackAfterOverwritingInsertIsFull) {
  Knowledge k;
  k.insert(3, 1.0);
  (void)pack(k, true);
  k.insert(8, 2.0); // an append: a delta still covers it
  EXPECT_FALSE(k.owes_full());
  (void)pack(k, false);
  k.insert(3, 4.0); // an overwrite, with nothing unshipped: it does not
  EXPECT_TRUE(k.owes_full());
  auto const bytes = pack(k, k.owes_full());
  ASSERT_EQ(ranks_of(bytes), (std::vector<RankId>{3, 8}));
  rt::Unpacker u{bytes};
  Knowledge receiver;
  receiver.merge_packed(u);
  EXPECT_DOUBLE_EQ(receiver.load_of(3), 4.0);
}

TEST(KnowledgeDelta, RankOrderReadWithUnshippedEntriesOwesAFullSnapshot) {
  // Restoring rank order folds the unshipped run into the shipped
  // entries, so only a full snapshot is known to cover it afterwards.
  Knowledge k;
  k.insert(9, 1.0);
  (void)pack(k, true);
  EXPECT_DOUBLE_EQ(k.load_of(9), 1.0); // nothing unshipped: no debt
  EXPECT_EQ(k.entries().size(), 1u);
  EXPECT_FALSE(k.owes_full());
  k.insert(2, 2.0);
  EXPECT_TRUE(k.contains(2)); // membership and size read no order
  EXPECT_EQ(k.unordered_entries().size(), 2u);
  EXPECT_FALSE(k.owes_full());
  EXPECT_DOUBLE_EQ(k.load_of(2), 2.0);
  EXPECT_TRUE(k.owes_full());
  EXPECT_EQ(ranks_of(pack(k, true)), (std::vector<RankId>{2, 9}));
}

TEST(KnowledgeDelta, DeltaRoundTripsAndIsSmallerThanTheSnapshot) {
  Knowledge k;
  Rng rng{11};
  for (RankId r = 0; r < 30; ++r) {
    k.insert(r * 7, rng.uniform(0.0, 2.0));
  }
  auto const first = pack(k, true);
  for (RankId r = 0; r < 10; ++r) {
    k.insert(r * 7 + 3, rng.uniform(0.0, 2.0));
  }
  Knowledge const before = k;
  auto const delta = pack(k, false);
  EXPECT_LT(delta.size(), first.size());

  rt::Unpacker u{delta};
  auto const back = Knowledge::unpack(u);
  EXPECT_TRUE(u.exhausted());
  ASSERT_EQ(back.size(), 10u);
  for (RankId r = 0; r < 10; ++r) {
    ASSERT_TRUE(back.contains(r * 7 + 3));
    EXPECT_DOUBLE_EQ(back.load_of(r * 7 + 3), before.load_of(r * 7 + 3));
  }
}

TEST(KnowledgeDelta, TruncationThatDropsEntriesOwesAFullSnapshot) {
  Knowledge k;
  for (RankId r = 0; r < 16; ++r) {
    k.insert(r, 1.0 + r);
  }
  (void)pack(k, true);
  Rng rng{5};
  k.truncate_random(4, rng);
  EXPECT_EQ(k.size(), 4u);
  EXPECT_TRUE(k.owes_full());
  EXPECT_EQ(ranks_of(pack(k, true)).size(), 4u);
  EXPECT_FALSE(k.owes_full()); // settled by the snapshot

  // A truncation that drops nothing owes nothing: the next forward can
  // stay a delta.
  k.truncate_random(8, rng);
  EXPECT_FALSE(k.owes_full());
  k.truncate_random(4, rng);
  EXPECT_FALSE(k.owes_full());
}

TEST(KnowledgeDelta, FullSnapshotRecoversDroppedEntriesAfterTruncation) {
  // The protocol-level recovery rule, replayed at the container level:
  // after a truncation the sender's next payload is a full snapshot, and
  // a receiver that merged earlier payloads plus that snapshot ends with
  // the sender's surviving entries — nothing silently disappears from the
  // wire protocol even though the sender forgot some of what it shipped.
  Knowledge sender;
  for (RankId r = 0; r < 12; ++r) {
    sender.insert(r, 0.5 + r);
  }
  Knowledge receiver;
  {
    auto const first = pack(sender, true);
    rt::Unpacker u{first};
    receiver.unpack_into(u);
  }

  sender.insert(20, 9.0);
  Rng rng{7};
  sender.truncate_random(6, rng);
  ASSERT_TRUE(sender.owes_full());
  {
    auto const second = pack(sender, sender.owes_full());
    rt::Unpacker u{second};
    receiver.merge_packed(u);
  }

  // The receiver holds the union of everything it was ever shipped: the
  // 12 originals from the first snapshot plus whatever survived the
  // truncation (rank 20 may or may not be among the survivors).
  for (auto const& e : sender.entries()) {
    ASSERT_TRUE(receiver.contains(e.rank)) << e.rank;
    EXPECT_DOUBLE_EQ(receiver.load_of(e.rank), e.load);
  }
  for (RankId r = 0; r < 12; ++r) {
    ASSERT_TRUE(receiver.contains(r)) << r;
  }
  EXPECT_EQ(receiver.size(), sender.contains(20) ? 13u : 12u);
}

TEST(KnowledgeDelta, UnpackIntoReplacesContentsAndOwesAFullSnapshot) {
  Knowledge k;
  k.insert(1, 1.0);
  k.insert(2, 2.0);
  auto const bytes = pack(k, true);

  Knowledge inbox;
  inbox.insert(9, 9.0); // stale contents to be replaced
  (void)pack(inbox, true);
  rt::Unpacker u{bytes};
  inbox.unpack_into(u);
  EXPECT_FALSE(inbox.contains(9));
  EXPECT_EQ(inbox.size(), 2u);
  EXPECT_TRUE(inbox.owes_full()); // unpack_into starts with clear()
}

TEST(KnowledgeDeltaDeath, DeltaWhileOwingAFullSnapshotAborts) {
  Knowledge k;
  k.insert(1, 1.0);
  rt::Packer p;
  EXPECT_DEATH(k.pack(p, false), "precondition");
}

TEST(KnowledgeDeltaDeath, EntryCountBeyondThePayloadAbortsBeforeSizing) {
  // A hostile count of 2^20 entries in a 5-byte payload: decoding must
  // reject it on the size check, not allocate 2^20 entries and fail later
  // on a truncated read.
  rt::Packer p;
  p.pack_varint(std::uint64_t{1} << 20);
  p.pack(std::uint16_t{0});
  Knowledge inbox;
  rt::Unpacker u{p.bytes()};
  EXPECT_DEATH(inbox.unpack_into(u), "remaining\\(\\)");
}

TEST(KnowledgeDeltaDeath, RankPastTheRankLimitAbortsBeforeSizing) {
  // The membership bitset is sized by the largest rank id, so a hostile
  // id must be rejected before it grows anything: the last id below
  // kMaxRanks decodes, the next one (or one that would wrap a gap past
  // 2^64) dies.
  auto payload = [](std::uint64_t first_gap, std::uint64_t second_gap) {
    rt::Packer p;
    p.pack_varint(2);
    p.pack_varint(first_gap);
    p.pack_varint(second_gap);
    p.pack(1.0);
    p.pack(2.0);
    return p;
  };
  auto const top = static_cast<std::uint64_t>(kMaxRanks) - 1;
  {
    auto const p = payload(0, top - 1);
    rt::Unpacker u{p.bytes()};
    Knowledge k;
    k.merge_packed(u);
    EXPECT_TRUE(k.contains(kMaxRanks - 1));
  }
  for (std::uint64_t const gap : {top, ~std::uint64_t{0}}) {
    auto const p = payload(0, gap);
    rt::Unpacker u{p.bytes()};
    Knowledge k;
    EXPECT_DEATH(k.merge_packed(u), "precondition") << gap;
  }
}

} // namespace
} // namespace tlb::lb
