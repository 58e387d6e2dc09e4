// Deterministic pseudo-random number generation.
//
// Everything stochastic in this library (random X-Net layers, ER
// baselines, weight initialization, synthetic datasets, shuffles) draws
// from radix::Rng so that experiments are exactly reproducible from a
// seed.  The engine is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64; it satisfies C++ UniformRandomBitGenerator so it can also
// feed <random> distributions if ever needed, but the common draws are
// provided directly to avoid libstdc++ distribution variance across
// versions.
#pragma once

#include <cstdint>
#include <vector>

namespace radix {

/// The SplitMix64 finalizer: a bijective multiply-xorshift mix of one
/// 64-bit word.  Rng seeds through it; the router's shard picks and the
/// fault injector's draws are mixed with it.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed the generator; equal seeds give equal streams on all platforms.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept { return next_u64(); }
  result_type next_u64() noexcept;

  /// Uniform integer in [0, bound) using Lemire rejection; bound > 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Standard normal via Box-Muller (cached second value).
  double normal() noexcept;

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev) noexcept;

  /// True with probability p.
  bool bernoulli(double p) noexcept;

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of {0, ..., n-1}.
  std::vector<std::uint32_t> permutation(std::uint32_t n);

  /// Fork an independent stream (for per-layer / per-worker determinism).
  Rng split() noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace radix
