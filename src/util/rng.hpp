// CreditFlow: deterministic pseudo-random generation for simulations.
//
// All stochastic components of the library draw from Rng so that every
// experiment is reproducible from a single 64-bit seed. The core generator is
// xoshiro256** (public domain, Blackman & Vigna), seeded through SplitMix64.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace creditflow::util {

/// FNV-1a over an arbitrary byte string. The default basis is the standard
/// 64-bit offset; passing another basis yields an independent hash of the
/// same bytes (the scenario cache combines two to form a 128-bit run key).
/// Pure and stateless: the same bytes hash identically across processes and
/// platforms, which is what lets content-addressed cache entries survive
/// restarts.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view bytes, std::uint64_t basis = 0xcbf29ce484222325ULL) {
  std::uint64_t h = basis;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// SplitMix64 stream; used to expand seeds and derive independent substreams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  [[nodiscard]] std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derive an independent seed for the `index`-th logical substream of
/// `base_seed`. Pure function of its arguments (no shared state), so sweep
/// workers on any thread can derive their run seed without synchronization,
/// and run k of a sweep always sees the same stream regardless of which
/// worker executes it or in what order. Two SplitMix64 finalization rounds
/// over (base, index) decorrelate even adjacent indices and adjacent bases.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t base_seed,
                                                  std::uint64_t index) {
  auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = mix(z);
  z = mix(z + 0x9e3779b97f4a7c15ULL);
  return z;
}

/// xoshiro256** generator with a rich distribution toolkit.
///
/// Satisfies UniformRandomBitGenerator so it can also feed <random>
/// distributions, though the member samplers below are preferred (stable
/// results across standard libraries).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed via SplitMix64 expansion; any 64-bit value (including 0) is fine.
  explicit Rng(std::uint64_t seed = 0x9d2c5680cafe4321ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Raw 64 random bits. Inline (with the other one-liners below): these
  /// fire millions of times per simulated run, squarely on the purchase
  /// and seeding hot paths.
  result_type operator()() { return next_u64(); }
  std::uint64_t next_u64() {
    const auto rotl = [](std::uint64_t x, int k) {
      return (x << k) | (x >> (64 - k));
    };
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

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() {
    // 53 random bits into [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi); requires lo < hi.
  [[nodiscard]] double uniform(double lo, double hi);
  /// Uniform integer in [0, n); requires n > 0. Unbiased (Lemire rejection).
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) {
    CF_EXPECTS(n > 0);
    // Lemire's nearly-divisionless unbiased bounded generation.
    __extension__ using U128 = unsigned __int128;
    std::uint64_t x = next_u64();
    U128 m = static_cast<U128>(x) * n;
    auto l = static_cast<std::uint64_t>(m);
    if (l < n) {
      const std::uint64_t t = (0 - n) % n;
      while (l < t) {
        x = next_u64();
        m = static_cast<U128>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }
  /// Bernoulli trial with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p) {
    CF_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }

  /// Exponential with given rate (mean 1/rate); requires rate > 0.
  [[nodiscard]] double exponential(double rate);
  /// Standard normal via Box-Muller (cached second variate).
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0);
  /// Log-normal such that the *mean* of the variate is `mean` and the
  /// coefficient of variation is `cv`; requires mean > 0, cv >= 0.
  [[nodiscard]] double lognormal_mean_cv(double mean, double cv);

  /// Sample an index proportionally to non-negative `weights`
  /// (linear scan; use AliasTable/FenwickSampler for repeated draws).
  /// Requires at least one strictly positive weight.
  [[nodiscard]] std::size_t discrete(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform_index(i)]);
    }
  }

  /// Pick a uniformly random element; requires non-empty span.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> v) {
    CF_EXPECTS(!v.empty());
    return v[uniform_index(v.size())];
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Static alias table for O(1) sampling from a fixed discrete distribution.
class AliasTable {
 public:
  AliasTable() = default;
  /// Build from non-negative weights with a positive sum.
  explicit AliasTable(std::span<const double> weights);

  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return prob_.size(); }
  [[nodiscard]] bool empty() const { return prob_.empty(); }

 private:
  std::vector<double> prob_;
  std::vector<std::size_t> alias_;
};

/// Fenwick-tree-backed sampler over mutable non-negative weights:
/// O(log n) update and O(log n) weighted sample. Used by the CTMC simulator
/// where per-queue rates switch on/off as queues empty and fill.
class FenwickSampler {
 public:
  /// Create with n zero weights.
  explicit FenwickSampler(std::size_t n = 0);

  void resize(std::size_t n);
  [[nodiscard]] std::size_t size() const { return weights_.size(); }

  /// Set weight of index i (>= 0).
  void set(std::size_t i, double w);
  /// Sum of all weights.
  [[nodiscard]] double total() const;
  /// Sample index i with probability weight_i / total(); requires total()>0.
  [[nodiscard]] std::size_t sample(Rng& rng) const;

 private:
  [[nodiscard]] std::size_t upper_bound(double x) const;

  std::vector<double> tree_;     // 1-based Fenwick prefix sums
  std::vector<double> weights_;  // raw weights for set() deltas
};

}  // namespace creditflow::util
