// Lightweight descriptive statistics used by the metrics and bench layers.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace dsp {

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams; O(1) space.
class RunningStat {
 public:
  /// Adds one observation.
  void add(double x);

  /// Number of observations so far.
  std::size_t count() const { return n_; }

  /// Sample mean; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }

  /// Unbiased sample variance; 0 when fewer than two observations.
  double variance() const;

  /// Sample standard deviation.
  double stddev() const;

  /// Smallest observation; +inf when empty.
  double min() const { return min_; }

  /// Largest observation; -inf when empty.
  double max() const { return max_; }

  /// Sum of all observations.
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStat& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

/// Returns the p-quantile (p in [0,1]) with linear interpolation.
/// Copies and sorts; intended for post-run reporting, not hot paths.
double percentile(std::span<const double> values, double p);

/// Arithmetic mean of a span; 0 when empty.
double mean_of(std::span<const double> values);

/// Median (50th percentile).
double median_of(std::span<const double> values);

}  // namespace dsp
