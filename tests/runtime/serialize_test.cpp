#include "runtime/serialize.hpp"

#include <gtest/gtest.h>

#include "lb/knowledge.hpp"
#include "support/rng.hpp"

namespace tlb::rt {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  Packer p;
  p.pack(42);
  p.pack(3.25);
  p.pack(std::int64_t{-7});
  Unpacker u{p.bytes()};
  EXPECT_EQ(u.unpack<int>(), 42);
  EXPECT_DOUBLE_EQ(u.unpack<double>(), 3.25);
  EXPECT_EQ(u.unpack<std::int64_t>(), -7);
  EXPECT_TRUE(u.exhausted());
}

struct Pod {
  int a;
  double b;
  friend bool operator==(Pod const&, Pod const&) = default;
};

TEST(Serialize, MixedSequencePreservesOrder) {
  Packer p;
  p.pack(Pod{1, 2.0});
  p.pack_varint(300);
  p.pack(std::uint8_t{4});
  p.pack_varint(0);
  p.pack(Pod{5, 6.0});
  Unpacker u{p.bytes()};
  EXPECT_EQ(u.unpack<Pod>(), (Pod{1, 2.0}));
  EXPECT_EQ(u.unpack_varint(), 300u);
  EXPECT_EQ(u.unpack<std::uint8_t>(), 4u);
  EXPECT_EQ(u.unpack_varint(), 0u);
  EXPECT_EQ(u.unpack<Pod>(), (Pod{5, 6.0}));
  EXPECT_TRUE(u.exhausted());
}

TEST(Serialize, ConsumedTracksOffset) {
  Packer p;
  p.pack(std::uint32_t{1});
  Unpacker u{p.bytes()};
  EXPECT_EQ(u.consumed(), 0u);
  (void)u.unpack<std::uint32_t>();
  EXPECT_EQ(u.consumed(), 4u);
}

TEST(Serialize, TakeMovesBuffer) {
  Packer p;
  p.pack(7);
  auto const bytes = std::move(p).take();
  EXPECT_EQ(bytes.size(), sizeof(int));
}

TEST(SerializeDeath, UnderflowAborts) {
  Packer p;
  p.pack(std::uint16_t{1});
  Unpacker u{p.bytes()};
  EXPECT_DEATH((void)u.unpack<std::uint64_t>(), "precondition");
}

TEST(SerializeVarint, RoundTripsRepresentativeAndBoundaryValues) {
  // Every 7-bit length boundary on both sides, plus interior values.
  std::vector<std::uint64_t> values{0, 1, 100, 127, 128, 300, 16383, 16384,
                                    (1ull << 21) - 1, 1ull << 21,
                                    (1ull << 32) - 1, 1ull << 32,
                                    (1ull << 56) - 1, 1ull << 56,
                                    (1ull << 63) - 1, 1ull << 63,
                                    ~std::uint64_t{0}};
  Packer p;
  std::size_t expected_size = 0;
  for (auto const v : values) {
    p.pack_varint(v);
    expected_size += varint_size(v);
  }
  // The emitted bytes and the size function must agree per value.
  EXPECT_EQ(p.size(), expected_size);
  Unpacker u{p.bytes()};
  for (auto const v : values) {
    EXPECT_EQ(u.unpack_varint(), v);
  }
  EXPECT_TRUE(u.exhausted());
}

TEST(SerializeVarint, SizeFunctionMatchesLengthBoundaries) {
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(16383), 2u);
  EXPECT_EQ(varint_size(16384), 3u);
  EXPECT_EQ(varint_size(~std::uint64_t{0}), 10u);
}

TEST(SerializeVarintDeath, OverflowingEncodingAborts) {
  // 10 continuation bytes with payload bits beyond bit 63.
  Packer p;
  for (int i = 0; i < 9; ++i) {
    p.pack(static_cast<std::uint8_t>(0xff));
  }
  p.pack(static_cast<std::uint8_t>(0x7f)); // final byte: payload too large
  Unpacker u{p.bytes()};
  EXPECT_DEATH((void)u.unpack_varint(), "precondition");
}

TEST(SerializeVarintDeath, TruncatedEncodingAborts) {
  // A continuation bit on the buffer's last byte: the decoder must not
  // read past the payload.
  Packer p;
  p.pack_varint(300);
  auto bytes = std::move(p).take();
  bytes.pop_back();
  Unpacker u{bytes};
  EXPECT_DEATH((void)u.unpack_varint(), "precondition");
}

TEST(SerializeArena, ArenaPackerAppendsWithoutReallocating) {
  std::vector<std::byte> arena;
  arena.reserve(16);
  auto const* const data = arena.data();
  {
    Packer p{arena};
    p.pack(std::uint64_t{41});
  }
  {
    Packer p{arena}; // appends after the bytes already handed out
    p.pack(std::uint32_t{7});
    EXPECT_EQ(p.size(), 12u);
  }
  EXPECT_EQ(arena.data(), data); // no reallocation happened
  Unpacker u{arena};
  EXPECT_EQ(u.unpack<std::uint64_t>(), 41u);
  EXPECT_EQ(u.unpack<std::uint32_t>(), 7u);
  EXPECT_TRUE(u.exhausted());
}

TEST(SerializeArenaDeath, WritePastTheReservedCapacityAborts) {
  // Earlier bytes may be in use by readers on other ranks: outgrowing the
  // reservation must stop the program, not move them.
  std::vector<std::byte> arena;
  arena.reserve(8);
  Packer p{arena};
  p.pack(std::uint32_t{1});
  EXPECT_DEATH(p.pack(std::uint64_t{2}), "precondition");
}

TEST(SerializeArenaDeath, TakeFromArenaPackerAborts) {
  std::vector<std::byte> arena;
  arena.reserve(8);
  Packer p{arena};
  p.pack(1);
  EXPECT_DEATH((void)std::move(p).take(), "precondition");
}

TEST(SerializeKnowledge, RoundTripPreservesEntries) {
  lb::Knowledge k;
  Rng rng{5};
  for (int i = 0; i < 40; ++i) {
    k.insert(static_cast<RankId>(i * 3), rng.uniform(0.0, 2.0));
  }
  Packer p;
  k.pack(p, true);
  // Ids 0, 3, 6, ... delta-code to gap 2: one varint byte each.
  EXPECT_EQ(p.size(), 1 + 40 * (1 + sizeof(double)));
  Unpacker u{p.bytes()};
  auto const back = lb::Knowledge::unpack(u);
  EXPECT_TRUE(u.exhausted());
  ASSERT_EQ(back.size(), k.size());
  for (auto const& e : k.entries()) {
    ASSERT_TRUE(back.contains(e.rank));
    EXPECT_DOUBLE_EQ(back.load_of(e.rank), e.load);
  }
}

TEST(SerializeKnowledge, CompactEncodingBeatsTheOldStructCopy) {
  // 256 dense small-id entries: delta-varint ids cost 1 byte each, so the
  // whole message sits near 9 bytes/entry against the old 16 (struct
  // padding included) plus its 8-byte length prefix.
  lb::Knowledge k;
  for (RankId r = 0; r < 256; ++r) {
    k.insert(r, 1.0);
  }
  Packer p;
  k.pack(p, true);
  std::size_t const old_format = 256 * sizeof(lb::KnownRank) + 8;
  EXPECT_LT(p.size(), old_format * 3 / 5);
}

TEST(SerializeKnowledge, EmptyKnowledge) {
  lb::Knowledge k;
  Packer p;
  k.pack(p, true);
  EXPECT_EQ(p.size(), 1u); // just the zero count
  Unpacker u{p.bytes()};
  EXPECT_TRUE(lb::Knowledge::unpack(u).empty());
}

TEST(SerializeKnowledge, UnpackIntoReplacesContentsWithoutReallocating) {
  lb::Knowledge big;
  for (RankId r = 0; r < 100; ++r) {
    big.insert(r, 0.5);
  }
  Packer p;
  big.pack(p, true);

  lb::Knowledge inbox = [] {
    lb::Knowledge k;
    for (RankId r = 0; r < 200; ++r) {
      k.insert(r, 1.0); // pre-grow capacity past the incoming size
    }
    return k;
  }();
  Unpacker u{p.bytes()};
  inbox.unpack_into(u);
  EXPECT_TRUE(u.exhausted());
  ASSERT_EQ(inbox.size(), 100u);
  for (RankId r = 0; r < 100; ++r) {
    EXPECT_DOUBLE_EQ(inbox.load_of(r), 0.5);
  }
}

} // namespace
} // namespace tlb::rt
