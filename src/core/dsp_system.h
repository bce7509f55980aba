// DSP façade: the offline scheduler and online preemption wired together,
// plus a one-call simulation runner.
//
// Quickstart:
//   auto jobs = WorkloadGenerator(cfg, seed).generate();
//   DspSystem dsp;                       // Table II defaults
//   RunMetrics m = dsp.run(ClusterSpec::real_cluster(), std::move(jobs));
#pragma once

#include <memory>

#include "core/dsp_scheduler.h"
#include "core/params.h"
#include "core/preemption.h"
#include "sim/engine.h"
#include "sim/run_metrics.h"

namespace dsp {

/// Runs one simulation: constructs an Engine over the cluster/workload with
/// the given policies and executes it to completion, recording into the
/// log DSP_EVENT_LOG names when that variable is set (obs/events.h). It is
/// the only library function that reads DSP_EVENT_LOG, and each call
/// truncates that file: a program that calls it twice keeps only the
/// second run's stream. `preempt` may be null (offline scheduling only).
/// Throws std::invalid_argument, as the Engine's constructor does, when a
/// task's demand fits no node of the cluster; nothing is simulated then.
RunMetrics simulate(const ClusterSpec& cluster, JobSet jobs,
                    Scheduler& scheduler, PreemptionPolicy* preempt,
                    EngineParams engine_params = {});

/// The complete DSP system of the paper: ILP/heuristic dependency-aware
/// scheduling (§III) + dependency-aware preemption with PP (§IV).
class DspSystem {
 public:
  /// One parameter set drives both halves.
  explicit DspSystem(DspParams params = {})
      : scheduler_(params), preemption_(params) {}

  DspScheduler& scheduler() { return scheduler_; }
  DspPreemption& preemption() { return preemption_; }
  const DspParams& params() const { return preemption_.params(); }

  /// Runs the full offline + online system on the workload.
  RunMetrics run(const ClusterSpec& cluster, JobSet jobs,
                 EngineParams engine_params = {}) {
    return simulate(cluster, std::move(jobs), scheduler_, &preemption_,
                    engine_params);
  }

 private:
  DspScheduler scheduler_;
  DspPreemption preemption_;
};

}  // namespace dsp
