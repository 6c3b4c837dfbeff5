#include "lb/knowledge.hpp"

#include <gtest/gtest.h>

#include "runtime/serialize.hpp"

namespace tlb::lb {
namespace {

/// Ship `from` as a full snapshot and merge the bytes into `into`, as a
/// gossip receipt does.
void merge_snapshot(Knowledge& into, Knowledge from) {
  rt::Packer p;
  from.pack(p, true);
  rt::Unpacker u{p.bytes()};
  into.merge_packed(u);
  EXPECT_TRUE(u.exhausted());
}

/// Bytes a full snapshot of `k` packs to.
std::size_t snapshot_bytes(Knowledge k) {
  rt::Packer p;
  k.pack(p, true);
  return p.size();
}

TEST(Knowledge, InsertAndLookup) {
  Knowledge k;
  EXPECT_TRUE(k.empty());
  k.insert(3, 1.5);
  k.insert(1, 0.5);
  k.insert(2, 1.0);
  EXPECT_EQ(k.size(), 3u);
  EXPECT_TRUE(k.contains(1));
  EXPECT_TRUE(k.contains(2));
  EXPECT_TRUE(k.contains(3));
  EXPECT_FALSE(k.contains(0));
  EXPECT_DOUBLE_EQ(k.load_of(1), 0.5);
  EXPECT_DOUBLE_EQ(k.load_of(3), 1.5);
}

TEST(Knowledge, EntriesSortedByRank) {
  Knowledge k;
  k.insert(9, 1.0);
  k.insert(2, 2.0);
  k.insert(5, 3.0);
  auto const e = k.entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].rank, 2);
  EXPECT_EQ(e[1].rank, 5);
  EXPECT_EQ(e[2].rank, 9);
}

TEST(Knowledge, InsertOverwritesExisting) {
  Knowledge k;
  k.insert(4, 1.0);
  k.insert(4, 2.0);
  EXPECT_EQ(k.size(), 1u);
  EXPECT_DOUBLE_EQ(k.load_of(4), 2.0);
}

TEST(Knowledge, MergeKeepsLocalLoadOnConflict) {
  Knowledge mine;
  mine.insert(1, 5.0); // locally updated (e.g. speculative transfer)
  Knowledge incoming;
  incoming.insert(1, 2.0); // stale gossiped value
  incoming.insert(2, 3.0); // new rank
  merge_snapshot(mine, incoming);
  EXPECT_EQ(mine.size(), 2u);
  EXPECT_DOUBLE_EQ(mine.load_of(1), 5.0); // local wins
  EXPECT_DOUBLE_EQ(mine.load_of(2), 3.0);
}

TEST(Knowledge, MergeDisjointSets) {
  Knowledge a;
  a.insert(0, 1.0);
  a.insert(4, 2.0);
  Knowledge b;
  b.insert(2, 3.0);
  b.insert(6, 4.0);
  merge_snapshot(a, b);
  ASSERT_EQ(a.size(), 4u);
  auto const e = a.entries();
  EXPECT_EQ(e[0].rank, 0);
  EXPECT_EQ(e[1].rank, 2);
  EXPECT_EQ(e[2].rank, 4);
  EXPECT_EQ(e[3].rank, 6);
}

TEST(Knowledge, MergeWithEmpty) {
  Knowledge a;
  a.insert(1, 1.0);
  merge_snapshot(a, Knowledge{});
  EXPECT_EQ(a.size(), 1u);

  Knowledge b;
  merge_snapshot(b, a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_DOUBLE_EQ(b.load_of(1), 1.0);
}

TEST(Knowledge, AddLoadAccumulates) {
  Knowledge k;
  k.insert(2, 1.0);
  k.add_load(2, 0.5);
  k.add_load(2, 0.25);
  EXPECT_DOUBLE_EQ(k.load_of(2), 1.75);
}

TEST(Knowledge, ClearEmpties) {
  Knowledge k;
  k.insert(1, 1.0);
  k.clear();
  EXPECT_TRUE(k.empty());
  EXPECT_FALSE(k.contains(1));
}

TEST(Knowledge, PackedSizeMatchesTheCompactEncoding) {
  // varint count + delta-varint rank ids + raw f64 loads — not
  // sizeof(KnownRank), which would bill struct padding to the network.
  Knowledge k;
  EXPECT_EQ(snapshot_bytes(k), 1u); // just the zero count
  k.insert(1, 1.0);
  EXPECT_EQ(snapshot_bytes(k), 1 + 1 + 8u);
  k.insert(2, 2.0);
  // Adjacent ranks delta-code to gap 0: one varint byte each.
  EXPECT_EQ(snapshot_bytes(k), 1 + 2 + 16u);
  k.insert(100000, 3.0);
  // Gap 99997 needs a 3-byte varint.
  EXPECT_EQ(snapshot_bytes(k), 1 + 2 + 3 + 24u);
}

TEST(KnowledgeDeath, LoadOfUnknownRankAborts) {
  Knowledge k;
  k.insert(1, 1.0);
  EXPECT_DEATH((void)k.load_of(9), "precondition");
}

TEST(KnowledgeDeath, AddLoadUnknownRankAborts) {
  Knowledge k;
  EXPECT_DEATH(k.add_load(0, 1.0), "precondition");
}

} // namespace
} // namespace tlb::lb
