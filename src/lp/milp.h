// Branch-and-bound MILP solver on top of the bounded-variable simplex.
//
// Serial best-bound search branching on the first fractional integer
// variable in model order, so a model that declares its decisive
// variables first (the §III model: placement x before ordering y) fixes
// them first. Open nodes are parent-delta records (one branched bound each,
// O(1) per node) carrying a shared pointer to the parent's optimal basis;
// child relaxations warm-start from that basis and are repaired by a
// dual simplex pass instead of a cold Phase-I/Phase-II solve. The whole
// search runs on one BoundedSimplex, so a child popped right after its
// parent reuses the live tableau and its sibling restores the parent's
// snapshot (the fast warm tiers of simplex.h). Nodes pop in (bound,
// creation order) order, so the tree, the node count and the solution
// are deterministic. Suited to the small exact instances the DSP ILP
// scheduler solves and to cross-validating the scheduling heuristic; a
// node cap (kMilpNodeCap) returns the best incumbent on larger models.
#pragma once

#include "lp/model.h"
#include "lp/simplex.h"

namespace dsp::lp {

/// Search-tree node cap of one solve, integrality tolerance, and the
/// absolute optimality gap at which the search stops early.
inline constexpr int kMilpNodeCap = 20000;
inline constexpr double kIntTol = 1e-6, kGapTol = 1e-9;

/// Branch & bound MILP solver. Solves are independent of each other; the
/// per-solve statistics make an instance unsafe for concurrent solve()
/// calls.
class MilpSolver {
 public:
  /// The one option: off is the cold reference path that tests and
  /// benchmarks compare warm-started child LPs against.
  struct Options {
    bool warm_start = true;
  };

  MilpSolver() = default;
  explicit MilpSolver(Options opts) : opts_(opts) {}

  /// Solves `model` to optimality (kOptimal), or returns the best incumbent
  /// under the node cap (kNodeLimit), or kNoSolution/kInfeasible/kUnbounded.
  Solution solve(const Model& model) const;

  /// Nodes explored during the most recent solve.
  int last_nodes() const { return last_nodes_; }

  /// Warm-started LP solves out of all LP solves in the most recent call
  /// (observability; also exported as lp.warm_start_hit / _miss).
  int last_warm_hits() const { return last_warm_hits_; }

 private:
  Options opts_;
  mutable int last_nodes_ = 0;
  mutable int last_warm_hits_ = 0;
};

}  // namespace dsp::lp
