// Host-speed calibration of the end-to-end times.
//
// The benchmark runs on shared hosts whose speed drifts by a third or more
// for seconds to minutes at a time, so host seconds alone read differently
// from one run to the next for identical work. The harness therefore times
// a fixed integer kernel (code of the benchmark's own, never of the
// simulator) between every two timed segments, and scales each segment's
// seconds by kReferenceKernelS over the mean of the two kernel times around
// it: the seconds the segment would have taken on a host that runs the
// kernel in kReferenceKernelS. A slower program reads slower in full; only
// a slower host cancels.
#pragma once

#include <vector>

namespace perfbench {

/// What the kernel takes on a quiet host: a shared 4-vCPU Xeon VM with
/// g++ 12 -O3 (the Release build). Fixed, so scaled times from different
/// runs and commits compare.
inline constexpr double kReferenceKernelS = 0.006;

/// Runs the kernel once and returns its host seconds (about 6 ms, no heap
/// use, so peak memory is unaffected).
double kernel_seconds();

/// Scales the segments between consecutive kernel timings.
class SpeedBracket {
 public:
  /// Opens the first bracket by timing the kernel.
  SpeedBracket() : before_s_(kernel_seconds()) {}

  /// Closes the current bracket (times the kernel again, which also
  /// opens the next one) and returns the factor that turns the host
  /// seconds measured inside it into reference seconds.
  double close();

  /// Median kernel seconds over reference seconds of the closed brackets.
  double slowdown() const;

 private:
  double before_s_;
  std::vector<double> slowdowns_;
};

}  // namespace perfbench
