// Whole-run invariant checking over recorded execution timelines.
//
// Validates that a completed simulation obeyed the physical and logical
// rules of the model, independent of the engine's internal bookkeeping:
//   1. Slot capacity — at no instant does a node run more concurrent
//      intervals than it has slots.
//   2. Resource capacity — at no instant do concurrent tasks' demands
//      exceed the node's capacity in any dimension.
//   3. Dependency order — a task's first productive run begins no earlier
//      than the completion of every precedent task.
//   4. Task serialization — a task never occupies two slots at once.
//   5. Completion — every task of every job has a finish record, and job
//      completion times equal their last task's finish.
//   6. Work conservation (checkpointed runs only) — the productive run
//      time of a finished task matches its size at the node's rate.
//
// The property-test suite runs every scheduler x policy combination
// through this checker.
#pragma once

#include <string>
#include <vector>

#include "dag/job.h"
#include "sim/cluster.h"
#include "sim/recorder.h"

namespace dsp {

/// Tolerance of check_run_invariants' time comparisons, in microseconds.
inline constexpr SimTime kInvariantTimeTol = 2;
/// Relative tolerance of its work-conservation check.
inline constexpr double kInvariantWorkRelTol = 1e-3;

/// Options for check_run_invariants.
struct InvariantOptions {
  /// Verify work conservation (rule 6). Disable for restart-mode policies
  /// (SRPT), whose preempted tasks legitimately re-execute work.
  bool check_work_conservation = true;
};

/// Validates a recorded run. `jobs` must be the same (finalized) workload
/// that was simulated, in the same order, and `cluster` the same cluster.
/// Returns human-readable violations; empty means the run was sound.
std::vector<std::string> check_run_invariants(
    const TimelineRecorder& recorder, const JobSet& jobs,
    const ClusterSpec& cluster, const InvariantOptions& options = {});

}  // namespace dsp
