#include "pic/particles.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "support/assert.hpp"

namespace tlb::pic {

void Particles::reserve(std::size_t n) {
  x_.reserve(n);
  y_.reserve(n);
  vx_.reserve(n);
  vy_.reserve(n);
}

void Particles::add(double x, double y, double vx, double vy) {
  x_.push_back(x);
  y_.push_back(y);
  vx_.push_back(vx);
  vy_.push_back(vy);
}

namespace {

/// Reflect `p` into [0, limit), flipping `v`'s sign on each bounce.
void reflect(double& p, double& v, double limit) {
  while (p < 0.0 || p >= limit) {
    if (p < 0.0) {
      p = -p;
      v = -v;
    } else {
      p = 2.0 * limit - p;
      v = -v;
      // Guard against landing exactly on the boundary from above.
      if (p >= limit) {
        p = std::nextafter(limit, 0.0);
      }
    }
  }
}

/// Bit 63 is set when `p` may lie outside [0, limit): p < 0 sets p's sign
/// bit, and p >= limit leaves the sign bit of p − limit clear (p − limit
/// is negative for every p < limit, since doubles underflow gradually).
/// Branch-free, so the loop that ORs it vectorizes. Its false alarms,
/// p = −0.0 and NaN, only run reflect(), which leaves such a p alone.
std::uint64_t outside_bit(double p, double limit) {
  return std::bit_cast<std::uint64_t>(p) |
         ~std::bit_cast<std::uint64_t>(p - limit);
}

} // namespace

void Particles::push(double dt, double lx, double ly) {
  TLB_EXPECTS(lx > 0.0 && ly > 0.0);
  std::size_t const n = x_.size();
  double* const x = x_.data();
  double* const y = y_.data();
  double* const vx = vx_.data();
  double* const vy = vy_.data();
  // Update pass: branch-free SoA arithmetic, which vectorizes. It also
  // notes whether any particle left [0, lx) x [0, ly).
  std::uint64_t outside = 0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += vx[i] * dt;
    y[i] += vy[i] * dt;
    outside |= outside_bit(x[i], lx) | outside_bit(y[i], ly);
  }
  if ((outside >> 63) == 0) {
    return;
  }
  // Reflect pass: reflect() reads and writes only its own coordinate and
  // velocity, so reflecting after every update gives the results of one
  // update-then-reflect loop bit for bit.
  for (std::size_t i = 0; i < n; ++i) {
    reflect(x[i], vx[i], lx);
    reflect(y[i], vy[i], ly);
  }
}

void Particles::remove_swap(std::size_t i) {
  TLB_EXPECTS(i < x_.size());
  x_[i] = x_.back();
  y_[i] = y_.back();
  vx_[i] = vx_.back();
  vy_[i] = vy_.back();
  x_.pop_back();
  y_.pop_back();
  vx_.pop_back();
  vy_.pop_back();
}

void Particles::take_from(Particles& from, std::size_t i) {
  add(from.x(i), from.y(i), from.vx(i), from.vy(i));
  from.remove_swap(i);
}

void Particles::clear() {
  x_.clear();
  y_.clear();
  vx_.clear();
  vy_.clear();
}

} // namespace tlb::pic
