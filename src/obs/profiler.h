// Scoped wall-clock profiler feeding the metrics registry.
//
// DSP_PROFILE("lp.simplex_solve_s"); at the top of a scope records the
// scope's wall-clock duration (in seconds) into the named histogram of
// the current registry, so bench --json dumps carry p50/p95/p99 solve
// and epoch timings. The name must be in obs/metrics.h's
// kHistogramNames.
//
// Instrumented hot paths (see DESIGN.md "Observability"):
//   lp.simplex_solve_s       one simplex solve
//   lp.milp_solve_s          one branch-and-bound solve
//   priority.compute_all_s   one Formula 12/13 recomputation over all jobs
//   priority.job_s           one on-demand job recomputation in DspPreemption
//   engine.epoch_s           one online-preemption epoch tick
//   sched.round_s            one offline scheduling round
//   engine.run_s             one whole simulation run
#pragma once

#include <chrono>

#include "obs/metrics.h"

namespace dsp::obs {

/// RAII timer: records the elapsed wall-clock seconds between
/// construction and destruction into `sink`.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histo& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    sink_.add(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start_)
                  .count());
  }

 private:
  Histo& sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dsp::obs

#define DSP_OBS_CONCAT_INNER(a, b) a##b
#define DSP_OBS_CONCAT(a, b) DSP_OBS_CONCAT_INNER(a, b)

/// Times the enclosing scope into histogram `name` of the registry that
/// is current when the scope opens.
#define DSP_PROFILE(name)                                        \
  ::dsp::obs::ScopedTimer DSP_OBS_CONCAT(_dsp_prof_t, __LINE__)( \
      ::dsp::obs::default_registry().histogram(                  \
          ::dsp::obs::histogram_id(name)))
