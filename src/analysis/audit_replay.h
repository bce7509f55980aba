// Preemption audit replay pass (rules P000-P004).
//
// Replays the Algorithm-1 decisions of a recorded run — the
// preempt_decision events of a flight-recorder stream (obs/events.h),
// decoded with obs::decision_of — and statically re-derives whether each
// was legal:
//   P002 — C1: a non-urgent fire requires candidate priority strictly
//          above the victim's.
//   P003 — C2: a fire is illegal when the candidate (transitively)
//          depends on the victim; needs the workload's DAGs.
//   P004 — the PP gate: with normalized preemption enabled, a non-urgent
//          fire requires P-tilde = P-hat/P-bar > rho, and a suppression
//          requires P-tilde <= rho.
//   P001 — Formula 12 monotonicity: when the candidate is an ancestor of
//          the victim (its completion transitively unlocks the victim),
//          Formula 12 folds the victim's subtree into the candidate's
//          priority scaled by (gamma+1) >= 1, so the recorded candidate
//          priority must dominate the victim's (the T_11 > T_6 > T_1
//          ordering of Fig. 3). Checked only while both priorities are
//          positive: past-deadline tasks can carry negative allowable
//          waiting time (Formula 13's omega3 term), which voids the bound.
//   P000 — stream integrity: decisions out of time order, or task ids
//          that do not exist in the supplied workload.
#pragma once

#include <vector>

#include "analysis/diagnostics.h"
#include "dag/job.h"
#include "obs/events.h"

namespace dsp::analysis {

/// Options for replay_audit.
struct AuditReplayOptions {
  /// Workload the run was recorded against (same finalized jobs, same
  /// order — gids are flat indices over it). Enables P001/P003 and the
  /// P000 gid-range check; null restricts the replay to the
  /// priority-arithmetic rules (P002/P004).
  const JobSet* workload = nullptr;
};

/// Absolute tolerance of replay_audit's priority and gap comparisons.
inline constexpr double kAuditReplayTol = 1e-9;

/// Replays every decision, appending findings to `report`. The decision's
/// position among the run's decisions (plus its engine time) names the
/// subject.
void replay_audit(const std::vector<obs::PreemptDecision>& decisions,
                  const AuditReplayOptions& options, Report& report);

}  // namespace dsp::analysis
