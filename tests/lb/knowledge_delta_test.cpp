#include "lb/knowledge.hpp"

#include <gtest/gtest.h>

#include "runtime/serialize.hpp"
#include "support/rng.hpp"

namespace tlb::lb {
namespace {

TEST(KnowledgeVersioning, EveryMutationAdvancesTheMark) {
  Knowledge k;
  EXPECT_EQ(k.version_mark(), 0u);
  k.insert(3, 1.0);
  EXPECT_EQ(k.version_mark(), 1u);
  k.insert(1, 0.5);
  EXPECT_EQ(k.version_mark(), 2u);
  k.insert(3, 2.0); // overwrite counts: the value changed
  EXPECT_EQ(k.version_mark(), 3u);
  k.add_load(1, 0.25);
  EXPECT_EQ(k.version_mark(), 4u);
}

TEST(KnowledgeVersioning, ClearResetsTheCounterAndTheFlag) {
  Knowledge k;
  k.insert(1, 1.0);
  k.insert(2, 2.0);
  Rng rng{3};
  k.truncate_random(1, rng);
  k.clear();
  EXPECT_EQ(k.version_mark(), 0u);
  EXPECT_FALSE(k.take_truncated());
  k.insert(5, 1.0);
  EXPECT_EQ(k.version_mark(), 1u); // counter restarted, not resumed
}

TEST(KnowledgeVersioning, MergeStampsOnlyTheFreshRanks) {
  Knowledge mine;
  mine.insert(1, 5.0);
  mine.insert(4, 2.0);
  auto const mark = mine.version_mark();

  Knowledge incoming;
  incoming.insert(1, 9.0); // already known: local value and stamp win
  incoming.insert(2, 3.0);
  incoming.insert(6, 4.0);
  mine.merge(incoming);

  EXPECT_EQ(mine.version_mark(), mark + 2); // two new ranks stamped
  EXPECT_EQ(mine.delta_count(mark), 2u);
  auto const fresh = mine.delta_copy(mark);
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_TRUE(fresh.contains(2));
  EXPECT_TRUE(fresh.contains(6));
  EXPECT_DOUBLE_EQ(mine.load_of(1), 5.0); // merge kept the local value
}

TEST(KnowledgeDelta, DeltaCopyShipsExactlyTheEntriesAboveTheMark) {
  Knowledge k;
  k.insert(10, 1.0);
  k.insert(20, 2.0);
  auto const mark = k.version_mark();

  k.insert(5, 0.5);       // new rank
  k.add_load(20, 0.25);   // changed value
  EXPECT_EQ(k.delta_count(mark), 2u);
  auto const delta = k.delta_copy(mark);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_TRUE(delta.contains(5));
  EXPECT_TRUE(delta.contains(20));
  EXPECT_DOUBLE_EQ(delta.load_of(20), 2.25);
  EXPECT_FALSE(delta.contains(10)); // untouched entry stays home
  // Nothing above the current mark: the delta drains to empty.
  EXPECT_EQ(k.delta_count(k.version_mark()), 0u);
  EXPECT_TRUE(k.delta_copy(k.version_mark()).empty());
}

TEST(KnowledgeDelta, PackDeltaRoundTripsAndMatchesItsSizeFunction) {
  Knowledge k;
  Rng rng{11};
  for (RankId r = 0; r < 30; ++r) {
    k.insert(r * 7, rng.uniform(0.0, 2.0));
  }
  auto const mark = k.version_mark();
  for (RankId r = 0; r < 10; ++r) {
    k.insert(r * 7 + 3, rng.uniform(0.0, 2.0));
  }

  rt::Packer p;
  k.pack_delta(p, mark);
  EXPECT_EQ(p.size(), k.wire_bytes_delta(mark));
  EXPECT_LT(p.size(), k.wire_bytes()); // strictly smaller than the full

  rt::Unpacker u{p.bytes()};
  auto const back = Knowledge::unpack(u);
  EXPECT_TRUE(u.exhausted());
  ASSERT_EQ(back.size(), 10u);
  for (RankId r = 0; r < 10; ++r) {
    ASSERT_TRUE(back.contains(r * 7 + 3));
    EXPECT_DOUBLE_EQ(back.load_of(r * 7 + 3), k.load_of(r * 7 + 3));
  }
}

TEST(KnowledgeDelta, MarkAheadOfTheCounterShipsOnlyLaterStamps) {
  // A mark past version_mark() names no entry yet; entries stamped up to
  // it later must still stay out of that delta.
  Knowledge k;
  k.insert(1, 1.0);
  k.insert(2, 2.0);
  EXPECT_EQ(k.wire_bytes_delta(4), 1u); // just the zero count
  k.insert(3, 3.0); // stamp 3
  k.insert(4, 4.0); // stamp 4
  EXPECT_EQ(k.wire_bytes_delta(4), 1u);
  k.insert(5, 5.0); // stamp 5: the first one past the mark
  EXPECT_EQ(k.delta_count(4), 1u);
  EXPECT_EQ(k.wire_bytes_delta(4), 1 + 1 + 8u);
}

TEST(KnowledgeDelta, TruncationRaisesTheRecoveryFlagOnce) {
  Knowledge k;
  for (RankId r = 0; r < 16; ++r) {
    k.insert(r, 1.0 + r);
  }
  Rng rng{5};
  k.truncate_random(4, rng);
  EXPECT_EQ(k.size(), 4u);
  EXPECT_TRUE(k.take_truncated());
  EXPECT_FALSE(k.take_truncated()); // consumed

  // A truncation that drops nothing must not raise the flag: the next
  // forward can stay a delta.
  k.truncate_random(8, rng);
  EXPECT_FALSE(k.take_truncated());
  k.truncate_random(4, rng);
  EXPECT_FALSE(k.take_truncated());
}

TEST(KnowledgeDelta, FullSnapshotRecoversDroppedEntriesAfterTruncation) {
  // The protocol-level recovery rule, replayed at the container level:
  // after a truncation the sender's next payload is pack_full, and a
  // receiver that merged earlier deltas plus that snapshot ends with the
  // sender's surviving entries — nothing silently disappears from the
  // wire protocol even though the sender forgot some of what it shipped.
  Knowledge sender;
  for (RankId r = 0; r < 12; ++r) {
    sender.insert(r, 0.5 + r);
  }
  rt::Packer first;
  sender.pack_full(first);

  Knowledge receiver;
  {
    rt::Unpacker u{first.bytes()};
    receiver.unpack_into(u);
  }

  sender.insert(20, 9.0);
  Rng rng{7};
  sender.truncate_random(6, rng);
  ASSERT_TRUE(sender.take_truncated());

  // Recovery: the post-truncation forward ships everything, not the
  // (now meaningless) delta above the stale high-water mark.
  rt::Packer second;
  sender.pack_full(second);
  Knowledge update;
  {
    rt::Unpacker u{second.bytes()};
    update.unpack_into(u);
  }
  receiver.merge(update);

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

TEST(KnowledgeDelta, UnpackIntoRestampsFromOne) {
  Knowledge k;
  k.insert(1, 1.0);
  k.insert(2, 2.0);
  rt::Packer p;
  k.pack_full(p);

  Knowledge inbox;
  inbox.insert(9, 9.0); // stale contents to be replaced
  rt::Unpacker u{p.bytes()};
  inbox.unpack_into(u);
  EXPECT_EQ(inbox.version_mark(), 2u); // stamped 1..n, counter at n+1
  EXPECT_FALSE(inbox.contains(9));
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
