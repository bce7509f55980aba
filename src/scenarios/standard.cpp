#include "scenarios/standard.h"

#include "baselines/aalo.h"
#include "baselines/preempt_baselines.h"
#include "baselines/tetris.h"
#include "core/dsp_scheduler.h"
#include "core/preemption.h"

namespace dsp {

std::unique_ptr<Scheduler> StandardScenarioFactory::make_scheduler(
    const ScenarioSpec& spec) const {
  switch (spec.sched) {
    case SchedKind::kDsp:
      // spec.dsp.gamma feeds both the offline ranking weight and the
      // online priority (Formula 12); ablations sweep them together.
      return std::make_unique<DspScheduler>(spec.dsp);
    case SchedKind::kAalo:
      return std::make_unique<AaloScheduler>();
    case SchedKind::kTetrisSimDep:
      return std::make_unique<TetrisScheduler>(
          TetrisScheduler::Dependency::kSimple);
    case SchedKind::kTetrisNoDep:
      return std::make_unique<TetrisScheduler>(
          TetrisScheduler::Dependency::kNone);
  }
  return nullptr;
}

std::unique_ptr<PreemptionPolicy> StandardScenarioFactory::make_policy(
    const ScenarioSpec& spec) const {
  switch (spec.policy) {
    case PolicyKind::kDsp:
      return std::make_unique<DspPreemption>(spec.dsp);
    case PolicyKind::kDspNoPp: {
      DspParams params = spec.dsp;
      params.normalized_pp = false;
      return std::make_unique<DspPreemption>(params);
    }
    case PolicyKind::kAmoeba:
      return std::make_unique<AmoebaPolicy>();
    case PolicyKind::kNatjam:
      return std::make_unique<NatjamPolicy>();
    case PolicyKind::kSrpt:
      return std::make_unique<SrptPolicy>();
    case PolicyKind::kNone:
      return nullptr;
  }
  return nullptr;
}

RunMetrics run_standard_scenario(const ScenarioSpec& spec,
                                 obs::EventLog* event_log) {
  return run_scenario(spec, StandardScenarioFactory{}, event_log);
}

GridResults run_standard_grid(const std::vector<ScenarioSpec>& grid,
                              const GridOptions& options) {
  return run_scenario_grid(grid, StandardScenarioFactory{}, options);
}

}  // namespace dsp
