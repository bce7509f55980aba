// The standard ScenarioFactory: maps ScenarioSpec's declarative policy
// pair and DSP settings onto the concrete DSP system (core/) and the
// paper's baselines (baselines/).
//
// This is the link-layer complement of sim/scenario.h: the sim library
// defines the spec and the runners without depending on any policy
// implementation; this library (dsp_scenarios) closes the loop for the
// methods the paper evaluates. Experiment drivers that need a policy
// outside this set supply their own ScenarioFactory instead.
#pragma once

#include <vector>

#include "sim/scenario.h"

namespace dsp {

/// Builds the paper's schedulers and preemption policies from a spec:
///   - SchedKind::kDsp       DspScheduler over spec.dsp
///   - SchedKind::kAalo      AaloScheduler
///   - SchedKind::kTetris*   TetrisScheduler (simple / no dependency)
///   - PolicyKind::kDsp      DspPreemption over spec.dsp
///   - PolicyKind::kDspNoPp  DspPreemption with the PP filter forced off
///   - PolicyKind::kAmoeba/kNatjam/kSrpt   the §V baselines
///   - PolicyKind::kNone     null (offline scheduling only)
/// DspParams' defaults equal Table II, so a default ScenarioSpec
/// reproduces the headline DSP configuration bit-for-bit.
class StandardScenarioFactory : public ScenarioFactory {
 public:
  std::unique_ptr<Scheduler> make_scheduler(
      const ScenarioSpec& spec) const override;
  std::unique_ptr<PreemptionPolicy> make_policy(
      const ScenarioSpec& spec) const override;
};

/// run_scenario with the standard factory.
RunMetrics run_standard_scenario(const ScenarioSpec& spec,
                                 obs::EventLog* event_log = nullptr);

/// run_scenario_grid with the standard factory.
GridResults run_standard_grid(const std::vector<ScenarioSpec>& grid,
                              const GridOptions& options = {});

}  // namespace dsp
