// The paper's §III makespan-minimization ILP.
//
//   Min L_MS                                                  (3)
//   s.t. completion of every task <= L_MS                     (4)
//        non-overlap of tasks sharing a processor             (5)(8)
//        per-job deadline on every task                       (6)
//        precedence along dependency chains                   (7)
//        y, x binary; start times >= 0                        (9)-(11)
//
// Each cluster node is expanded into `slots` single-task virtual machines
// running at the node's g(k) rate, which maps the paper's per-node ordering
// constraints onto multi-slot servers exactly. A task holds its machine
// for its execution time plus the paper's preemption padding
// N^p * (t^r + sigma), in the completion, deadline, precedence and
// non-overlap rows alike.
//
// Two changes to the paper's model leave its optimum unchanged and
// shrink the branch & bound tree by an order of magnitude:
//   - a load cut per machine m, sum_t busy(t, m) * x[t][m] <= L_MS, valid
//     because a machine runs its tasks one at a time within [0, L_MS];
//     the big-M rows of (5)/(8) do not imply it at fractional x;
//   - ordering binaries y (and their big-M rows) only for pairs that
//     precedence leaves unordered: when one task is an ancestor of the
//     other, (7) along the chain already separates them on any machine.
//
// The model is built over plain inputs (no engine dependency) so it can be
// unit-tested against brute force and cross-validated with the heuristic
// scheduler. Exact solves are only tractable for small instances (the
// paper's CPLEX had the same practical ceiling, hence its relax-and-round
// suggestion): ablation_ilp and perfbench's ilp_small solve instances of
// a few tasks on a few machines.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/model.h"

namespace dsp {

/// One task in an ILP scheduling instance.
struct IlpTask {
  double size_mi = 1.0;
  /// Relative deadline in seconds from the schedule origin; infinity
  /// disables constraint (6) for this task.
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Indices of precedent tasks (must run before this one).
  std::vector<int> parents;
  /// Estimated preemption count N^p: the task holds its machine
  /// n_preempt * recovery_s beyond its execution, in (4)-(8).
  int n_preempt = 0;
};

/// A scheduling instance: tasks + virtual machines.
struct IlpProblem {
  std::vector<IlpTask> tasks;
  std::vector<double> machine_rates;  ///< MIPS of each virtual machine.
  double recovery_s = 0.3;            ///< t^r + sigma per preemption.
};

/// Result of an ILP (or relaxation) solve.
struct IlpScheduleResult {
  lp::SolveStatus status = lp::SolveStatus::kNoSolution;
  double makespan_s = 0.0;
  std::vector<int> machine_of;   ///< Per task: virtual machine index.
  std::vector<double> start_s;   ///< Per task: start offset in seconds.

  bool ok() const {
    return status == lp::SolveStatus::kOptimal ||
           status == lp::SolveStatus::kNodeLimit;
  }
};

/// Builds the §III model. Exposed for tests; most callers use
/// solve_ilp_schedule. Variable layout: [L, t_s[0..T), x[t][m] row-major,
/// then y[i][j][m] for i < j, m innermost, over the pairs that
/// precedence leaves unordered]. Rows: assignment, (4), one load cut per
/// machine, (6) when enforced, (7), then two big-M rows per y.
lp::Model build_ilp_model(const IlpProblem& problem, bool enforce_deadlines);

/// Solves the instance with branch & bound, enforcing deadlines (6). When
/// the deadline-constrained model is infeasible it retries without them
/// (the paper's online preemption then repairs lateness). The search stops
/// at MilpSolver's node cap (lp::kMilpNodeCap); a capped solve returns its
/// best incumbent with status kNodeLimit.
IlpScheduleResult solve_ilp_schedule(const IlpProblem& problem);

/// The paper's relax-and-round mode: solve the LP relaxation, fix each
/// task to its largest-fraction machine, then derive start times by list
/// scheduling on the fixed placement. Always returns a feasible schedule
/// (precedence + non-overlap), though not necessarily optimal.
IlpScheduleResult solve_relax_round(const IlpProblem& problem);

/// List-scheduling lower-level helper: given fixed machine assignments,
/// computes earliest feasible start times honouring precedence and
/// machine exclusivity. Tasks are seeded in `order` (a topological order
/// refined by any priority); returns the resulting makespan.
double list_schedule_fixed(const IlpProblem& problem,
                           const std::vector<int>& machine_of,
                           const std::vector<int>& order,
                           std::vector<double>& start_s);

}  // namespace dsp
