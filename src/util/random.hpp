// Deterministic, seedable pseudo-random number generation.
//
// All stochastic components of CarbonEdge (trace synthesis, workload
// arrivals, latency jitter) draw from this engine so that every experiment
// is bit-reproducible from a single seed. We use xoshiro256** (Blackman &
// Vigna) seeded via splitmix64, which is both faster and statistically
// stronger than std::mt19937 while keeping the object trivially copyable.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string_view>

namespace carbonedge::util {

/// splitmix64 step; used for seeding and for stateless hash-based draws.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of a value (for hash-derived deterministic noise).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// FNV-1a hash of a string, for deriving per-entity seeds from names.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept {
    for (auto& word : state_) word = splitmix64(seed);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Unbiased via rejection.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Standard normal via Marsaglia polar method.
  [[nodiscard]] double normal() noexcept;

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Exponential with given rate (mean 1/rate).
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Poisson-distributed count with given mean (Knuth for small, normal
  /// approximation for large means).
  [[nodiscard]] std::uint64_t poisson(double mean) noexcept;

  /// Bernoulli trial.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Draw an index from a discrete distribution given non-negative weights.
  /// Returns weights.size() only if every weight is zero or the span is empty.
  [[nodiscard]] std::size_t weighted_index(const double* weights, std::size_t count) noexcept;

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace carbonedge::util
