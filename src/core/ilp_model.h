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
// constraints onto multi-slot servers exactly. Completion times carry the
// paper's preemption padding N^p * (t^r + sigma).
//
// The model is built over plain inputs (no engine dependency) so it can be
// unit-tested against brute force and cross-validated with the heuristic
// scheduler. Exact solves are only tractable for small instances (the
// paper's CPLEX had the same practical ceiling, hence its relax-and-round
// suggestion); callers cap sizes via can_solve_exactly().
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
  /// Estimated preemption count N^p (pads completion by n_preempt *
  /// recovery_s per constraint (4)/(6)).
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

/// Options for solve_ilp_schedule.
struct IlpSolveOptions {
  bool enforce_deadlines = true;
  /// Retry without constraint (6) when the deadline-constrained model is
  /// infeasible (the paper's online preemption then repairs lateness).
  bool relax_deadlines_on_infeasible = true;
  int max_bb_nodes = 20000;
};

/// Rough tractability guard for the exact solver.
bool can_solve_exactly(const IlpProblem& problem, std::size_t max_tasks = 8,
                       std::size_t max_machines = 4);

/// Builds the §III model. Exposed for tests; most callers use
/// solve_ilp_schedule. Variable layout: [L, t_s[0..T), x[t][m] row-major,
/// y vars appended].
lp::Model build_ilp_model(const IlpProblem& problem, bool enforce_deadlines);

/// Solves the instance exactly with branch & bound.
IlpScheduleResult solve_ilp_schedule(const IlpProblem& problem,
                                     const IlpSolveOptions& options = {});

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

/// Estimates N^p for a task from its deadline slack: a task whose relative
/// deadline leaves less than 2x its execution time of slack is likely to
/// be preempted once; very tight tasks twice. (Stands in for the
/// checkpoint-scheduling estimator of the paper's reference [29].)
int estimate_preemptions(double exec_s, double deadline_s);

}  // namespace dsp
