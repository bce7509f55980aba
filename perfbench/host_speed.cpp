#include "host_speed.h"

#include <algorithm>
#include <cstdint>

#include "layer_trace.h"

namespace perfbench {

namespace {

volatile std::uint64_t g_sink = 0;

}  // namespace

double kernel_seconds() {
  const Clock::time_point t0 = Clock::now();
  // splitmix64 steps folded through a data-dependent shift: a serial
  // chain of integer multiplies, shifts and adds the compiler can neither
  // vectorise nor shorten.
  std::uint64_t x = 1, acc = 0;
  for (int i = 0; i < 4'000'000; ++i) {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    acc += (z ^ (z >> 31)) >> (acc & 7);
  }
  g_sink = acc;
  return seconds_between(t0, Clock::now());
}

double SpeedBracket::close() {
  const double after_s = kernel_seconds();
  const double mean_s = (before_s_ + after_s) / 2.0;
  before_s_ = after_s;
  slowdowns_.push_back(mean_s / kReferenceKernelS);
  return kReferenceKernelS / mean_s;
}

double SpeedBracket::slowdown() const {
  if (slowdowns_.empty()) return 1.0;
  std::vector<double> s = slowdowns_;
  const auto mid = s.begin() + static_cast<std::ptrdiff_t>(s.size() / 2);
  std::nth_element(s.begin(), mid, s.end());
  return *mid;
}

}  // namespace perfbench
