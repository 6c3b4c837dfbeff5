#pragma once

/// \file rng.hpp
/// Deterministic random number generation.
///
/// Every randomized algorithm in this library (gossip peer selection, CMF
/// sampling, workload generation) takes an explicit seed so that any
/// experiment is exactly reproducible. The core generator is splitmix64 —
/// tiny state, excellent statistical quality for this use, and trivially
/// splittable so each simulated rank can derive an independent stream from
/// (experiment seed, rank id, stream tag).

#include <cstdint>
#include <span>

#include "support/assert.hpp"

namespace tlb {

/// splitmix64 generator. Satisfies std::uniform_random_bit_generator so it
/// can also feed <random> distributions when convenient.
class Rng {
public:
  using result_type = std::uint64_t;

  Rng() = default;
  explicit Rng(std::uint64_t seed) : state_{seed} {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Advance the stream past `n` draws of operator() in O(1): each draw
  /// adds one golden-ratio increment to the state, modulo 2^64.
  void discard(std::uint64_t n) { state_ += n * kGamma; }

  /// Derive an independent stream, e.g. per rank or per trial. Mixing the
  /// tag through one generator step decorrelates nearby tags.
  [[nodiscard]] Rng split(std::uint64_t tag) const {
    Rng mixer{state_ ^ (0x632be59bd9b4e019ull * (tag + 1))};
    return Rng{mixer()};
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  /// method to avoid modulo bias.
  std::uint64_t uniform_below(std::uint64_t bound) {
    TLB_EXPECTS(bound > 0);
    while (true) {
      std::uint64_t const x = (*this)();
      __uint128_t const m = static_cast<__uint128_t>(x) * bound;
      auto const lo = static_cast<std::uint64_t>(m);
      if (lo >= bound || lo >= (-bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    TLB_EXPECTS(lo <= hi);
    auto const span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_below(span));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    TLB_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Standard normal deviate (Box-Muller, one value per call; we do not
  /// cache the second deviate to keep the state a single word).
  double normal();

  /// Lognormal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Gamma(shape k, scale theta) via Marsaglia-Tsang; used to generate
  /// task-load distributions with controlled skew.
  double gamma(double shape, double scale);

  /// Exponential with the given mean.
  double exponential(double mean);

  /// Fisher-Yates shuffle of a span.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      auto const j = uniform_below(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Pick an index in [0, n) uniformly.
  std::size_t index(std::size_t n) {
    TLB_EXPECTS(n > 0);
    return static_cast<std::size_t>(uniform_below(n));
  }

private:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;
  std::uint64_t state_ = 0x853c49e6748fea9bull;
};

/// Derive a child seed from a root seed and a stream tag: the splitmix
/// derivation that threads a run's single root seed (RuntimeConfig::seed)
/// into subordinate components that need a plain integer seed rather than
/// an Rng (e.g. an embedded runtime's config). Components that can hold an
/// Rng should prefer Rng{root}.split(tag) directly.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t root,
                                               std::uint64_t tag) {
  Rng mixer = Rng{root}.split(tag);
  return mixer();
}

} // namespace tlb
