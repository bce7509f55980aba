// Bounded-variable simplex with basis warm-start.
//
// Designed for the small-to-medium models the DSP ILP scheduler produces
// (hundreds of variables/rows) and for the re-solve pattern that dominates
// its hot path: branch-and-bound children differing from their parent by a
// single variable bound.
//
// Simple variable bounds are handled implicitly — every nonbasic variable
// sits at its lower or upper bound (or at zero when free) — so finite
// bounds never become constraint rows and the row count m is the model's
// constraint count alone. The tableau lives in one flat row-major buffer;
// entering columns are chosen by candidate-list partial pricing; a run of
// degenerate steps falls back to Bland's anti-cycling rule in both the
// primal and the dual iteration, which guarantees termination; an
// iteration cap (kMaxIterations) guards against pathological inputs.
//
// Warm start: a Basis (per-row basic column + per-column status) exported
// from a previous optimal solve can seed a new solve. The basis is
// refactorized (rows whose own slack is basic are identity and cost
// nothing), bound changes are absorbed by clamping nonbasic values, and
// the remaining primal infeasibility is repaired by a dual simplex pass —
// the textbook mechanism that makes LP-based branch & bound tractable.
// A singular or doubly infeasible warm basis falls back to a cold start.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/model.h"

namespace dsp::lp {

/// Pivot/flip cap of one solve across all phases, and the numerical
/// tolerance.
inline constexpr int kMaxIterations = 100000;
inline constexpr double kTol = 1e-9;

/// Status of one column in a simplex basis.
enum class VarStatus : std::uint8_t {
  kBasic = 0,
  kAtLower = 1,
  kAtUpper = 2,
  kFree = 3,  ///< Nonbasic at value 0 (both bounds infinite).
};

/// A simplex basis snapshot: enough to warm-start a later solve.
///
/// `basic[i]` is the column basic in row i (-1 for a redundant row whose
/// Phase-I artificial could not be expelled); `status[j]` covers the
/// structural and slack columns. Obtained from SimplexSolver::solve /
/// BoundedSimplex::solve and opaque to callers otherwise.
struct Basis {
  std::vector<std::int32_t> basic;
  std::vector<VarStatus> status;

  bool empty() const { return basic.empty(); }
  void clear() {
    basic.clear();
    status.clear();
  }
};

/// Dense bounded-variable simplex LP solver.
///
/// Integrality markers on variables are ignored — this solves the
/// continuous relaxation. Use MilpSolver for integral models.
class SimplexSolver {
 public:
  /// Counters for the most recent solve (benchmarks, tests, obs).
  struct SolveStats {
    int iterations = 0;       ///< Pivots + bound flips, all phases.
    int dual_iterations = 0;  ///< Pivots taken by the dual simplex.
    int bland_pivots = 0;     ///< Iterations chosen under Bland's rule.
    bool warm_used = false;   ///< A warm basis was accepted (not cold).
  };

  /// Solves the continuous relaxation of `model` from a cold start.
  Solution solve(const Model& model) const;

  /// Solves with a warm-start basis. When `basis` is non-null and
  /// non-empty it seeds the solve (falling back to a cold start if it is
  /// unusable); on an optimal exit the final basis is written back to
  /// `*basis`, so a caller re-solving a drifting model can thread the
  /// basis through consecutive calls.
  Solution solve(const Model& model, Basis* basis) const;

  const SolveStats& last_stats() const { return stats_; }

 private:
  mutable SolveStats stats_;
};

/// Reusable bounded-variable simplex bound to one Model's constraint
/// matrix. Construction builds the (bounds-independent) initial matrix
/// once; callers may then override variable bounds and re-solve many
/// times — exactly the branch-and-bound access pattern, where each child
/// node differs from its parent by a single bound. MilpSolver runs its
/// whole search on one instance.
class BoundedSimplex {
 public:
  explicit BoundedSimplex(const Model& model);

  /// Overrides the bounds of structural variable `v` for later solves.
  void set_var_bounds(VarId v, double lower, double upper);

  /// Restores every structural bound to the model's.
  void reset_bounds();

  /// Solves under the current bounds. `warm` (nullable / possibly empty)
  /// seeds the basis; `out` (nullable) receives the optimal basis.
  Solution solve(const Basis* warm, Basis* out);

  const SimplexSolver::SolveStats& stats() const { return stats_; }

  std::size_t rows() const { return m_; }
  std::size_t cols() const { return n_; }

 private:
  enum class LoopStatus { kOptimal, kUnbounded, kInfeasible, kIterationLimit };

  double* row(std::size_t i) { return tab_.data() + i * width_; }
  const double* row(std::size_t i) const { return tab_.data() + i * width_; }
  double value_of(std::size_t j) const;
  bool fixed(std::size_t j) const;

  bool try_warm_start(const Basis& warm);
  bool matches_own_basis(const Basis& warm) const;
  bool matches_prev_basis(const Basis& warm) const;
  void snap_nonbasic_statuses();
  void save_own_state();
  void save_prev_state(const Basis& warm);
  void restore_prev_state();
  void cold_start();
  LoopStatus primal_loop(int& budget);
  LoopStatus dual_loop(int& budget);
  int price_primal(bool bland) const;
  int price_primal_candidates();
  void refresh_candidates();
  void pivot(std::size_t prow, std::size_t pcol);
  void apply_step(std::size_t enter, double delta, std::size_t skip_row);
  void compute_reduced_costs(const std::vector<double>& cost);
  void compute_beta(const std::vector<double>& rhs);
  bool dual_feasible() const;
  bool primal_feasible() const;
  void expel_artificials();
  Solution extract(const Model& model, Basis* out);

  SimplexSolver::SolveStats stats_;
  const Model* model_;

  std::size_t nv_;     // structural columns (model variables)
  std::size_t m_;      // constraint rows
  std::size_t n_;      // structural + slack columns
  std::size_t width_;  // n_ + m_: room for Phase-I artificials
  std::size_t n_art_ = 0;  // artificials in use this solve

  std::vector<double> a0_;    // initial matrix (m_ x width_), slack identity
  std::vector<double> b0_;    // initial rhs
  std::vector<double> obj_;   // minimize-direction cost over width_
  std::vector<double> lo_, hi_;  // current bounds over width_

  // Working state, rebuilt per solve.
  std::vector<double> tab_;      // tableau (m_ x width_)
  std::vector<double> beta_;     // values of basic variables per row
  std::vector<double> z_;        // reduced costs
  std::vector<double> cost_;     // cost vector of the current phase
  std::vector<VarStatus> status_;
  std::vector<std::int32_t> basic_;
  std::vector<std::uint32_t> pivot_cols_;  // scratch: pivot row nonzeros
  std::vector<std::uint32_t> candidates_;  // partial-pricing candidates

  // Fast warm paths. After an optimal solve the context remembers the
  // basis it exported plus the refactorized rhs of its tableau; a later
  // solve seeded with that exact basis (branch & bound re-solving a
  // child of the node this context just solved) skips the tableau reset
  // and refactorization entirely — the tableau is already factorized —
  // and only recomputes beta under the new bounds.
  bool own_valid_ = false;
  Basis own_basis_;
  std::vector<double> own_rhs_;
  // Additionally, every warm solve snapshots its factorized-but-not-yet-
  // repaired tableau, keyed by the seed basis. Sibling nodes share their
  // parent's basis, so when the second sibling lands on this context the
  // snapshot restores with a memcpy instead of a refactorization.
  bool prev_valid_ = false;
  Basis prev_basis_;
  std::vector<double> prev_rhs_;
  std::vector<double> prev_tab_;
  std::vector<VarStatus> prev_status_;
  std::vector<std::int32_t> prev_basic_;
  std::size_t prev_nart_ = 0;
  std::vector<double> setup_rhs_;  // rhs of the factorized warm tableau
};

}  // namespace dsp::lp
