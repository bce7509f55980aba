// The standard ScenarioFactory: maps ScenarioSpec's declarative policy
// pair and knobs onto the concrete DSP system (core/) and the paper's
// baselines (baselines/).
//
// This is the link-layer complement of sim/scenario.h: the sim library
// defines the spec and the runners without depending on any policy
// implementation; this library (dsp_scenarios) closes the loop for the
// methods the paper evaluates. Experiment drivers that need a policy
// outside this set supply their own ScenarioFactory instead.
#pragma once

#include <vector>

#include "core/params.h"
#include "sim/scenario.h"

namespace dsp {

/// Builds the paper's schedulers and preemption policies from a spec:
///   - SchedKind::kDsp       DspScheduler (gamma, locality_aware knobs)
///   - SchedKind::kAalo      AaloScheduler
///   - SchedKind::kTetris*   TetrisScheduler (simple / no dependency)
///   - PolicyKind::kDsp      DspPreemption over the full knob set
///   - PolicyKind::kDspNoPp  DspPreemption with the PP filter forced off
///   - PolicyKind::kAmoeba/kNatjam/kSrpt   the §V baselines
///   - PolicyKind::kNone     null (offline scheduling only)
/// Knob defaults equal Table II, so a default ScenarioSpec reproduces the
/// headline DSP configuration bit-for-bit.
class StandardScenarioFactory : public ScenarioFactory {
 public:
  std::unique_ptr<Scheduler> make_scheduler(
      const ScenarioSpec& spec) const override;
  std::unique_ptr<PreemptionPolicy> make_policy(
      const ScenarioSpec& spec) const override;

  /// The DspParams a spec's knobs translate to (also used by kDspNoPp,
  /// which then clears normalized_pp). Exposed so ablation drivers can
  /// inspect or extend the mapping.
  static DspParams dsp_params(const ScenarioSpec& spec);
};

/// run_scenario with the standard factory.
RunMetrics run_standard_scenario(const ScenarioSpec& spec,
                                 obs::EventLog* event_log = nullptr);

/// run_scenario_grid with the standard factory.
GridResults run_standard_grid(const std::vector<ScenarioSpec>& grid,
                              const GridOptions& options = {});

}  // namespace dsp
