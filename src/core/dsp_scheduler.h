// DSP's offline dependency-aware scheduler (paper §III).
//
// Every scheduling period the engine hands over the jobs submitted since
// the previous period; the scheduler derives a target node and start time
// for every task, minimizing makespan under dependency and deadline
// constraints.
//
// Three modes:
//  - kExact: the paper's ILP solved with branch & bound. Only tractable on
//    small instances (the guard falls back to the heuristic; even CPLEX
//    cannot solve the full formulation at cluster scale).
//  - kRelaxRound: the paper's own concession — relax integrality, solve the
//    LP, round placements, derive start times by list scheduling.
//  - kHeuristic (default): dependency-weighted list scheduling that
//    greedily optimizes the same objective: tasks are ranked by their
//    Formula-12-style downstream weight (more dependents at higher levels
//    first — the T_11 > T_6 > T_1 ordering of Fig. 3) and placed on the
//    node giving the earliest estimated finish. Cross-validated against
//    kExact in tests.
#pragma once

#include <cstdint>

#include "core/ilp_model.h"
#include "core/params.h"
#include "sim/engine.h"
#include "sim/policy.h"

namespace dsp {

/// Scheduling mode selection.
enum class ScheduleMode {
  kHeuristic,
  kRelaxRound,
  kExact,
};

const char* to_string(ScheduleMode m);

/// DSP's offline scheduler.
class DspScheduler : public Scheduler {
 public:
  struct Options {
    ScheduleMode mode = ScheduleMode::kHeuristic;
    /// Caps for accepting an instance into the exact solver.
    std::size_t exact_max_tasks = 8;
    std::size_t exact_max_machines = 4;
    /// gamma of the ranking weight (matches DspParams::gamma).
    double gamma = 0.5;
    /// Apply the paper's preemption padding N^p (t^r + sigma) when
    /// estimating completion times in the exact/relax models.
    bool preemption_padding = true;
    double recovery_s = 0.3;
    /// Account for input-data transfer time in placement (data locality,
    /// §VI future work): the heuristic's finish estimate includes the
    /// remote-fetch cost, steering tasks toward the nodes holding their
    /// inputs.
    bool locality_aware = true;
  };

  DspScheduler() = default;
  explicit DspScheduler(Options options) : options_(options) {}

  const char* name() const override { return "DSP"; }

  std::vector<TaskPlacement> schedule(const std::vector<JobId>& jobs,
                                      Engine& engine) override;

  /// Static Formula-12-style downstream weight used for ranking: leaves
  /// weigh 1, internal tasks 1 + sum((gamma+1) * child weight). Exposed
  /// for tests.
  static std::vector<double> dependency_weights(const Job& job, double gamma);

  /// Mode actually used by the most recent schedule() call.
  ScheduleMode last_mode() const { return last_mode_; }

 private:
  std::vector<TaskPlacement> schedule_heuristic(const std::vector<JobId>& jobs,
                                                Engine& engine) const;
  std::vector<TaskPlacement> schedule_ilp(const std::vector<JobId>& jobs,
                                          Engine& engine, bool exact);

  Options options_;
  ScheduleMode last_mode_ = ScheduleMode::kHeuristic;
};

}  // namespace dsp
