/// \file inform_plane_test.cpp
/// The inform plane's epoch arenas. Each rank reserves its arena once, to
/// a bound computed from (P, rounds, wire, max_knowledge), and packs every
/// forward of an epoch into it; an arena-mode Packer aborts instead of
/// reallocating, so an epoch that reaches quiescence proves the bound
/// held. Swept over rank counts, round counts, both wires, capped and
/// uncapped knowledge and both runtime drivers. Uncapped delta epochs
/// must also leave every rank with the knowledge full resend gives. On
/// the threaded driver a rank forwards round r+1 on whichever round-r
/// message reaches it first, so what later rounds carry depends on
/// delivery timing: there the wires must agree at rounds = 1, where only
/// the seeds' own entries travel, and every entry must be a seed at its
/// own load. The peer draw that fixes each epoch's overlay and the
/// forward encoding, both shared with the sequential emulator, are pinned
/// on their own below.

#include "lb/strategy/inform_plane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/serialize.hpp"
#include "support/rng.hpp"

namespace tlb::lb {
namespace {

struct Known {
  RankId rank;
  LoadType load;
  friend bool operator==(Known const&, Known const&) = default;
};

/// Every other rank is underloaded, so even P = 2 has a seed.
LoadType load_of_rank(RankId r) {
  return r % 2 == 0 ? 0.25 + 0.001 * r : 1.5;
}

/// Runs two inform epochs (the second on rewound arenas) and returns
/// every rank's final knowledge.
std::vector<std::vector<Known>> run_epochs(RankId p, int rounds,
                                           GossipWire wire, std::size_t cap,
                                           int threads) {
  rt::RuntimeConfig cfg;
  cfg.num_ranks = p;
  cfg.num_threads = threads;
  cfg.seed = 97;
  rt::Runtime rt{cfg};
  std::vector<LoadType> loads(static_cast<std::size_t>(p));
  for (RankId r = 0; r < p; ++r) {
    loads[static_cast<std::size_t>(r)] = load_of_rank(r);
  }
  InformPlane plane{p,      cfg.seed, wire, std::min<int>(6, p - 1),
                    rounds, cap,      nullptr};
  for (int epoch = 0; epoch < 2; ++epoch) {
    plane.reset_epoch();
    rt.post_all([&plane, &loads](rt::RankContext& ctx) {
      auto const load = loads[static_cast<std::size_t>(ctx.rank())];
      if (load < 1.0) {
        plane.seed_and_forward(ctx, load);
      }
    });
    EXPECT_TRUE(rt.run_until_quiescent());
  }
  std::vector<std::vector<Known>> known(static_cast<std::size_t>(p));
  for (RankId r = 0; r < p; ++r) {
    for (auto const& e : plane.knowledge_of(r).entries()) {
      known[static_cast<std::size_t>(r)].push_back({e.rank, e.load});
    }
  }
  return known;
}

class InformArena : public ::testing::TestWithParam<RankId> {};

TEST_P(InformArena, EpochsFitTheArenaOnBothDrivers) {
  RankId const p = GetParam();
  for (int const threads : {1, 4}) {
    for (int const rounds : {1, 5, 63}) {
      for (std::size_t const cap : {std::size_t{0}, std::size_t{4}}) {
        SCOPED_TRACE(::testing::Message()
                     << "threads " << threads << ", rounds " << rounds
                     << ", cap " << cap);
        auto const full = run_epochs(p, rounds, GossipWire::full, cap,
                                     threads);
        auto const delta = run_epochs(p, rounds, GossipWire::delta, cap,
                                      threads);
        if (cap == 0 && (threads == 1 || rounds == 1)) {
          EXPECT_EQ(delta, full);
        }
        for (auto const& known : delta) {
          for (auto const& e : known) {
            ASSERT_LT(e.rank, p);
            EXPECT_EQ(e.rank % 2, 0); // only seeds' entries travel
            EXPECT_EQ(e.load, load_of_rank(e.rank));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, InformArena, ::testing::Values(2, 17, 256),
                         [](auto const& param_info) {
                           std::string name = "P";
                           name += std::to_string(param_info.param);
                           return name;
                         });

TEST(DrawPeers, DistinctRanksOtherThanSelf) {
  Rng rng{31};
  std::vector<RankId> peers{99, 98}; // stale contents are replaced
  for (RankId const p : {1, 2, 3, 7, 64}) {
    for (int const fanout : {1, 2, 6, 100}) {
      for (RankId self = 0; self < p; ++self) {
        draw_peers(peers, p, self, fanout, rng);
        ASSERT_EQ(peers.size(),
                  static_cast<std::size_t>(std::min<RankId>(fanout, p - 1)));
        auto sorted = peers;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                  sorted.end());
        for (RankId const peer : peers) {
          EXPECT_NE(peer, self);
          EXPECT_GE(peer, 0);
          EXPECT_LT(peer, p);
        }
      }
    }
  }
}

TEST(DrawPeers, RejectionDrawsOverTheWholeRankRange) {
  // The draw is uniform_below(P) with rejection of self and repeats, so a
  // caller's stream advances exactly as that loop, written out here,
  // advances it.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng{seed};
    Rng ref_rng{seed};
    std::vector<RankId> peers;
    draw_peers(peers, 12, 5, 6, rng);
    std::vector<RankId> expect;
    while (expect.size() < 6) {
      auto const r = static_cast<RankId>(ref_rng.uniform_below(12));
      if (r != 5 && std::find(expect.begin(), expect.end(), r) ==
                        expect.end()) {
        expect.push_back(r);
      }
    }
    EXPECT_EQ(peers, expect) << seed;
    EXPECT_EQ(rng(), ref_rng()) << seed;
  }
}

/// The bytes of one forwarding event of `k` at `round`.
std::vector<std::byte> forward_bytes(Knowledge& k, int round,
                                     GossipWire wire) {
  rt::Packer p;
  pack_forward(p, k, round, wire);
  auto const bytes = p.bytes();
  return {bytes.begin(), bytes.end()};
}

TEST(PackForward, RoundVarintThenFlagThenPayload) {
  Knowledge k;
  k.insert(2, 0.5);
  Knowledge copy = k;
  auto const bytes = forward_bytes(k, 300, GossipWire::delta);
  rt::Packer expect;
  expect.pack_varint(300);
  expect.pack(std::uint8_t{1}); // the epoch's first forward is full
  copy.pack(expect, true);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), expect.bytes().begin(),
                         expect.bytes().end()));

  k.insert(7, 1.5);
  auto const delta = forward_bytes(k, 2, GossipWire::delta);
  ASSERT_GE(delta.size(), 2u);
  EXPECT_EQ(delta[1], std::byte{0}); // only rank 7 is new: a delta
  Knowledge receiver;
  EXPECT_FALSE(merge_forward(delta, 2, receiver));
  EXPECT_EQ(receiver.size(), 1u);
  EXPECT_TRUE(receiver.contains(7));
}

TEST(PackForward, FullWireShipsASnapshotEveryTime) {
  Knowledge k;
  k.insert(1, 0.25);
  k.insert(4, 0.75);
  for (int round = 1; round <= 3; ++round) {
    auto const bytes = forward_bytes(k, round, GossipWire::full);
    Knowledge receiver;
    EXPECT_TRUE(merge_forward(bytes, round, receiver));
    EXPECT_EQ(receiver.size(), 2u) << round;
  }
}

TEST(PackForward, MergeForwardKeepsTheReceiversOwnLoads) {
  Knowledge sender;
  sender.insert(3, 9.0);
  sender.insert(5, 1.0);
  auto const bytes = forward_bytes(sender, 1, GossipWire::delta);
  Knowledge receiver;
  receiver.insert(3, 0.5); // a speculative local update outranks gossip
  EXPECT_TRUE(merge_forward(bytes, 1, receiver));
  EXPECT_DOUBLE_EQ(receiver.load_of(3), 0.5);
  EXPECT_DOUBLE_EQ(receiver.load_of(5), 1.0);
}

TEST(PackForwardDeath, RoundOtherThanTheMessagesAborts) {
  Knowledge sender;
  sender.insert(1, 1.0);
  auto const bytes = forward_bytes(sender, 4, GossipWire::delta);
  Knowledge receiver;
  EXPECT_DEATH((void)merge_forward(bytes, 5, receiver), "assertion");
}

} // namespace
} // namespace tlb::lb
