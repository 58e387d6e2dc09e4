#include "support/random.hpp"

#include <cmath>
#include <numbers>

namespace radix {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  return mix64(x);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // All-zero state is the one forbidden state of xoshiro; splitmix64 of any
  // seed cannot produce four zeros, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method with rejection for exact
  // uniformity.
  if (bound == 0) return 0;
  // __int128 is a GCC/Clang extension; __extension__ keeps -Wpedantic quiet.
  __extension__ using u128 = unsigned __int128;
  u128 m = static_cast<u128>(next_u64()) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      m = static_cast<u128>(next_u64()) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) noexcept { return uniform01() < p; }

std::vector<std::uint32_t> Rng::permutation(std::uint32_t n) {
  std::vector<std::uint32_t> p(n);
  for (std::uint32_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

Rng Rng::split() noexcept { return Rng(next_u64()); }

}  // namespace radix
