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
/// own load.

#include "lb/strategy/inform_plane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"

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
                           return "P" + std::to_string(param_info.param);
                         });

} // namespace
} // namespace tlb::lb
