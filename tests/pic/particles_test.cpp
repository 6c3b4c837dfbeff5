#include "pic/particles.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace tlb::pic {
namespace {

TEST(Particles, AddAndAccess) {
  Particles p;
  EXPECT_TRUE(p.empty());
  p.add(1.0, 2.0, 0.1, -0.2);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p.x(0), 1.0);
  EXPECT_DOUBLE_EQ(p.y(0), 2.0);
  EXPECT_DOUBLE_EQ(p.vx(0), 0.1);
  EXPECT_DOUBLE_EQ(p.vy(0), -0.2);
}

TEST(Particles, PushAdvancesPositions) {
  Particles p;
  p.add(1.0, 1.0, 0.5, 0.25);
  p.push(2.0, 100.0, 100.0);
  EXPECT_DOUBLE_EQ(p.x(0), 2.0);
  EXPECT_DOUBLE_EQ(p.y(0), 1.5);
}

TEST(Particles, ReflectsAtUpperBoundary) {
  Particles p;
  p.add(9.5, 5.0, 1.0, 0.0);
  p.push(1.0, 10.0, 10.0); // would land at 10.5 -> reflect to 9.5
  EXPECT_NEAR(p.x(0), 9.5, 1e-12);
  EXPECT_DOUBLE_EQ(p.vx(0), -1.0);
}

TEST(Particles, ReflectsAtLowerBoundary) {
  Particles p;
  p.add(0.5, 5.0, -1.0, 0.0);
  p.push(1.0, 10.0, 10.0); // would land at -0.5 -> reflect to 0.5
  EXPECT_NEAR(p.x(0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(p.vx(0), 1.0);
}

TEST(Particles, StaysInDomainUnderLongRandomPush) {
  Particles p;
  Rng rng{31};
  for (int i = 0; i < 200; ++i) {
    p.add(rng.uniform(0.0, 20.0), rng.uniform(0.0, 10.0),
          rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
  }
  for (int step = 0; step < 100; ++step) {
    p.push(1.0, 20.0, 10.0);
    for (std::size_t i = 0; i < p.size(); ++i) {
      ASSERT_GE(p.x(i), 0.0);
      ASSERT_LT(p.x(i), 20.0);
      ASSERT_GE(p.y(i), 0.0);
      ASSERT_LT(p.y(i), 10.0);
    }
  }
}

struct Scalar {
  double x, y, vx, vy;
};

/// The per-particle push: advance one particle, then reflect each
/// coordinate until it lies in [0, limit).
void reference_reflect(double& p, double& v, double limit) {
  while (p < 0.0 || p >= limit) {
    if (p < 0.0) {
      p = -p;
      v = -v;
    } else {
      p = 2.0 * limit - p;
      v = -v;
      if (p >= limit) {
        p = std::nextafter(limit, 0.0);
      }
    }
  }
}

void reference_push(std::vector<Scalar>& ps, double dt, double lx,
                    double ly) {
  for (Scalar& p : ps) {
    p.x += p.vx * dt;
    p.y += p.vy * dt;
    reference_reflect(p.x, p.vx, lx);
    reference_reflect(p.y, p.vy, ly);
  }
}

/// Push `ps` through Particles and through the reference for `steps`
/// steps, and require the same bits in every field.
void expect_push_matches_reference(std::vector<Scalar> ps, double dt,
                                   double lx, double ly, int steps) {
  Particles p;
  for (Scalar const& s : ps) {
    p.add(s.x, s.y, s.vx, s.vy);
  }
  auto const bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (int step = 0; step < steps; ++step) {
    p.push(dt, lx, ly);
    reference_push(ps, dt, lx, ly);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      ASSERT_EQ(bits(p.x(i)), bits(ps[i].x)) << "step " << step << " #" << i;
      ASSERT_EQ(bits(p.y(i)), bits(ps[i].y)) << "step " << step << " #" << i;
      ASSERT_EQ(bits(p.vx(i)), bits(ps[i].vx)) << "step " << step;
      ASSERT_EQ(bits(p.vy(i)), bits(ps[i].vy)) << "step " << step;
    }
  }
}

TEST(Particles, PushMatchesPerParticleReferenceBitForBit) {
  // Seeded particles whose steps reach 5 domain widths: most bounce at
  // least once, many several times (|v·dt| > 2·domain).
  Rng rng{0x5eed};
  double const lx = 24.0;
  double const ly = 10.0;
  std::vector<Scalar> ps;
  for (int i = 0; i < 300; ++i) {
    ps.push_back({rng.uniform(0.0, lx), rng.uniform(0.0, ly),
                  rng.uniform(-5.0 * lx, 5.0 * lx),
                  rng.uniform(-5.0 * ly, 5.0 * ly)});
  }
  expect_push_matches_reference(ps, 1.0, lx, ly, 20);
  expect_push_matches_reference(ps, 0.37, lx, ly, 20);
}

TEST(Particles, PushMatchesReferenceOnExactBoundaryLandings) {
  // Landings exactly on the limit (the nextafter guard), on 0, on 2·limit
  // and on −limit, and a −0.0 that stays −0.0.
  double const lx = 8.0;
  double const ly = 4.0;
  std::vector<Scalar> const ps{
      {7.0, 1.0, 1.0, 0.0},   // x lands on lx
      {1.0, 3.0, 0.0, 1.0},   // y lands on ly
      {1.0, 1.0, -1.0, -1.0}, // both land on 0
      {4.0, 2.0, 12.0, 6.0},  // both land on 2·limit
      {2.0, 1.0, -10.0, -5.0}, // both land on −limit
      {-0.0, 2.0, -0.0, 0.0}, // −0.0 in range
  };
  expect_push_matches_reference(ps, 1.0, lx, ly, 3);
}

TEST(Particles, PushWithNoParticleLeavingTheDomain) {
  // Every particle stays inside, so the reflect pass never runs.
  Rng rng{77};
  std::vector<Scalar> ps;
  for (int i = 0; i < 64; ++i) {
    ps.push_back({rng.uniform(10.0, 11.0), rng.uniform(10.0, 11.0),
                  rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
  }
  expect_push_matches_reference(ps, 1.0, 100.0, 100.0, 5);
}

TEST(Particles, RemoveSwapKeepsOthers) {
  Particles p;
  p.add(1.0, 0.0, 0.0, 0.0);
  p.add(2.0, 0.0, 0.0, 0.0);
  p.add(3.0, 0.0, 0.0, 0.0);
  p.remove_swap(0); // last (3.0) takes slot 0
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p.x(0), 3.0);
  EXPECT_DOUBLE_EQ(p.x(1), 2.0);
}

TEST(Particles, TakeFromTransfers) {
  Particles a;
  Particles b;
  a.add(1.0, 2.0, 3.0, 4.0);
  a.add(5.0, 6.0, 7.0, 8.0);
  b.take_from(a, 0);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_DOUBLE_EQ(b.x(0), 1.0);
  EXPECT_DOUBLE_EQ(b.vy(0), 4.0);
  EXPECT_DOUBLE_EQ(a.x(0), 5.0);
}

TEST(Particles, WireBytes) {
  Particles p;
  EXPECT_EQ(p.wire_bytes(), 0u);
  p.add(0, 0, 0, 0);
  p.add(0, 0, 0, 0);
  EXPECT_EQ(p.wire_bytes(), 2 * particle_wire_bytes);
}

TEST(Particles, ClearEmpties) {
  Particles p;
  p.add(1, 1, 0, 0);
  p.clear();
  EXPECT_TRUE(p.empty());
}

TEST(ParticlesDeath, RemoveOutOfRangeAborts) {
  Particles p;
  EXPECT_DEATH(p.remove_swap(0), "precondition");
}

} // namespace
} // namespace tlb::pic
