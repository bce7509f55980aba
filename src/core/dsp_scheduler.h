// DSP's offline dependency-aware scheduler (paper §III).
//
// Every scheduling period the engine hands over the jobs submitted since
// the previous period; the scheduler derives a target node and start time
// for every task, minimizing makespan under dependency and deadline
// constraints.
//
// The paper states this as an ILP (core/ilp_model.h), which even CPLEX
// cannot solve at cluster scale. The scheduler instead runs
// dependency-weighted list scheduling that greedily optimizes the same
// objective: tasks are ranked by their Formula-12-style downstream weight
// (more dependents at higher levels first — the T_11 > T_6 > T_1 ordering
// of Fig. 3) and placed on the node giving the earliest estimated finish.
// Tests cross-check it against the exact ILP optimum on small instances.
#pragma once

#include <cstdint>

#include "core/params.h"
#include "sim/engine.h"
#include "sim/policy.h"

namespace dsp {

/// DSP's offline scheduler.
class DspScheduler : public Scheduler {
 public:
  /// Reads gamma (the ranking weight) and locality_aware (the finish
  /// estimate includes the remote-fetch cost of a task's input data,
  /// steering tasks toward the nodes holding it; §VI future work).
  explicit DspScheduler(DspParams params = {}) : params_(params) {}

  const char* name() const override { return "DSP"; }

  std::vector<TaskPlacement> schedule(const std::vector<JobId>& jobs,
                                      Engine& engine) override;

  /// Static Formula-12-style downstream weight used for ranking: leaves
  /// weigh 1, internal tasks 1 + sum((gamma+1) * child weight). Exposed
  /// for tests.
  static std::vector<double> dependency_weights(const Job& job, double gamma);

 private:
  std::vector<TaskPlacement> schedule_heuristic(const std::vector<JobId>& jobs,
                                                Engine& engine) const;

  DspParams params_;
};

}  // namespace dsp
