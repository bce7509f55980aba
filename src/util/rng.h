// Deterministic random number generation for workload synthesis and tests.
//
// A small xoshiro256** engine (public-domain algorithm by Blackman & Vigna)
// plus the handful of distributions the workload generator needs. We do not
// use <random>'s distributions because their outputs are not specified
// bit-exactly across standard library implementations; experiments must be
// reproducible from a seed alone.
#pragma once

#include <array>
#include <cstdint>
#include <cmath>
#include <vector>

namespace dsp {

/// xoshiro256** pseudo-random engine with SplitMix64 seeding.
///
/// Satisfies UniformRandomBitGenerator, so it can also feed standard
/// algorithms such as std::shuffle.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the engine; distinct seeds yield independent-looking streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Re-seeds in place (SplitMix64 expansion of the 64-bit seed).
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p.
  bool chance(double p);

  /// Standard normal via Box–Muller (cached second variate).
  double normal();

  /// Normal with the given mean / stddev.
  double normal(double mean, double stddev);

  /// Log-normal: exp(N(mu, sigma)). Heavy-tailed task-size model.
  double lognormal(double mu, double sigma);

  /// Exponential with the given rate (mean 1/rate). Poisson inter-arrivals.
  double exponential(double rate);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights);

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace dsp
