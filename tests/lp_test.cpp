// Tests for the LP/MILP substrate: simplex on known instances, property
// checks against brute force, branch & bound on integer programs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/ilp_model.h"
#include "lp/milp.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace dsp::lp {
namespace {

// ---------------------------------------------------------------------
// Model basics
// ---------------------------------------------------------------------

TEST(ModelTest, ObjectiveValue) {
  Model m;
  const VarId x = m.add_var(0, 10, 2.0);
  const VarId y = m.add_var(0, 10, -1.0);
  EXPECT_DOUBLE_EQ(m.objective_value({3.0, 4.0}), 2.0);
  (void)x;
  (void)y;
}

TEST(ModelTest, FeasibilityCheck) {
  Model m;
  m.add_var(0, 5, 1.0);
  LinearExpr e;
  e.add(0, 1.0);
  m.add_constraint(std::move(e), Sense::kLe, 3.0);
  EXPECT_TRUE(m.is_feasible({2.0}));
  EXPECT_FALSE(m.is_feasible({4.0}));   // violates constraint
  EXPECT_FALSE(m.is_feasible({-1.0}));  // violates lower bound
}

TEST(ModelTest, IntegralityInFeasibility) {
  Model m;
  m.add_int_var(0, 5, 1.0);
  EXPECT_TRUE(m.is_feasible({2.0}));
  EXPECT_FALSE(m.is_feasible({2.5}));
}

TEST(ModelTest, HasIntegers) {
  Model m;
  m.add_var(0, 1, 1.0);
  EXPECT_FALSE(m.has_integers());
  m.add_binary_var(1.0);
  EXPECT_TRUE(m.has_integers());
}

// ---------------------------------------------------------------------
// Simplex: known instances
// ---------------------------------------------------------------------

TEST(SimplexTest, SimpleMaximize) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0  => (4,0), obj 12.
  Model m;
  m.set_direction(Direction::kMaximize);
  const VarId x = m.add_var(0, kInf, 3.0);
  const VarId y = m.add_var(0, kInf, 2.0);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 1), Sense::kLe, 4);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 3), Sense::kLe, 6);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-6);
  EXPECT_NEAR(s.x[0], 4.0, 1e-6);
  EXPECT_NEAR(s.x[1], 0.0, 1e-6);
}

TEST(SimplexTest, SimpleMinimizeWithGe) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 1 => x=9? obj: prefer x
  // (cheaper): x + y = 10 with max x: y = 1, x = 9 -> obj 21.
  Model m;
  const VarId x = m.add_var(2, kInf, 2.0);
  const VarId y = m.add_var(1, kInf, 3.0);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 1), Sense::kGe, 10);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 21.0, 1e-6);
  EXPECT_NEAR(s.x[0], 9.0, 1e-6);
  EXPECT_NEAR(s.x[1], 1.0, 1e-6);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y s.t. x + 2y = 4, x,y >= 0 => y=2, x=0, obj 2.
  Model m;
  const VarId x = m.add_var(0, kInf, 1.0);
  const VarId y = m.add_var(0, kInf, 1.0);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 2), Sense::kEq, 4);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
  EXPECT_NEAR(s.x[1], 2.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasible) {
  Model m;
  const VarId x = m.add_var(0, 1, 1.0);
  m.add_constraint(LinearExpr().add(x, 1), Sense::kGe, 5);
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsInfeasibleBoundCross) {
  Model m;
  m.add_var(3, 1, 1.0);  // lower > upper
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  Model m;
  m.set_direction(Direction::kMaximize);
  m.add_var(0, kInf, 1.0);
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, RespectsUpperBounds) {
  Model m;
  m.set_direction(Direction::kMaximize);
  m.add_var(0, 7, 1.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 7.0, 1e-9);
}

TEST(SimplexTest, FreeVariable) {
  // min x s.t. x >= -5 handled via free split: x in (-inf, inf), x+3 >= 0.
  Model m;
  const VarId x = m.add_var(-kInf, kInf, 1.0);
  m.add_constraint(LinearExpr().add(x, 1), Sense::kGe, -5);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], -5.0, 1e-6);
}

TEST(SimplexTest, NegativeLowerBound) {
  Model m;
  const VarId x = m.add_var(-10, 10, 1.0);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], -10.0, 1e-6);
  (void)x;
}

TEST(SimplexTest, DegenerateTerminates) {
  // Classic degenerate LP; Bland's rule must terminate.
  Model m;
  m.set_direction(Direction::kMaximize);
  const VarId x1 = m.add_var(0, kInf, 10.0);
  const VarId x2 = m.add_var(0, kInf, -57.0);
  const VarId x3 = m.add_var(0, kInf, -9.0);
  const VarId x4 = m.add_var(0, kInf, -24.0);
  m.add_constraint(
      LinearExpr().add(x1, 0.5).add(x2, -5.5).add(x3, -2.5).add(x4, 9), Sense::kLe,
      0);
  m.add_constraint(
      LinearExpr().add(x1, 0.5).add(x2, -1.5).add(x3, -0.5).add(x4, 1), Sense::kLe,
      0);
  m.add_constraint(LinearExpr().add(x1, 1.0), Sense::kLe, 1);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(SimplexTest, MultipleConstraintsVertex) {
  // min -x - y s.t. 2x + y <= 10, x + 3y <= 15 => vertex (3, 4), obj -7.
  Model m;
  const VarId x = m.add_var(0, kInf, -1.0);
  const VarId y = m.add_var(0, kInf, -1.0);
  m.add_constraint(LinearExpr().add(x, 2).add(y, 1), Sense::kLe, 10);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 3), Sense::kLe, 15);
  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-6);
  EXPECT_NEAR(s.x[1], 4.0, 1e-6);
}

// ---------------------------------------------------------------------
// Simplex property tests: random LPs vs random feasible points
// ---------------------------------------------------------------------

class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, SolutionFeasibleAndNotBeatenByRandomPoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  const int nvars = static_cast<int>(rng.uniform_int(1, 5));
  const int ncons = static_cast<int>(rng.uniform_int(1, 6));

  Model m;
  std::vector<double> ub(static_cast<std::size_t>(nvars));
  for (int v = 0; v < nvars; ++v) {
    ub[static_cast<std::size_t>(v)] = rng.uniform(1.0, 10.0);
    m.add_var(0.0, ub[static_cast<std::size_t>(v)], rng.uniform(-5.0, 5.0));
  }
  // Constraints of form sum a_i x_i <= b with a_i >= 0 and b > 0: the
  // origin is always feasible, so the LP is feasible and bounded.
  std::vector<std::vector<double>> rows;
  for (int c = 0; c < ncons; ++c) {
    LinearExpr e;
    std::vector<double> row(static_cast<std::size_t>(nvars));
    for (int v = 0; v < nvars; ++v) {
      row[static_cast<std::size_t>(v)] = rng.uniform(0.0, 3.0);
      e.add(v, row[static_cast<std::size_t>(v)]);
    }
    const double b = rng.uniform(1.0, 12.0);
    row.push_back(b);
    rows.push_back(row);
    m.add_constraint(std::move(e), Sense::kLe, b);
  }

  const Solution s = SimplexSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_TRUE(m.is_feasible(s.x, 1e-5));

  // No random feasible point may beat the reported optimum (minimize).
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> p(static_cast<std::size_t>(nvars));
    for (int v = 0; v < nvars; ++v)
      p[static_cast<std::size_t>(v)] =
          rng.uniform(0.0, ub[static_cast<std::size_t>(v)]);
    if (!m.is_feasible(p, 1e-9)) continue;
    EXPECT_GE(m.objective_value(p), s.objective - 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(0, 20));

// ---------------------------------------------------------------------
// MILP
// ---------------------------------------------------------------------

TEST(MilpTest, PureLpPassesThrough) {
  Model m;
  m.set_direction(Direction::kMaximize);
  m.add_var(0, 4, 1.0);
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-6);
}

TEST(MilpTest, SimpleIntegerRounding) {
  // max x s.t. 2x <= 7, x integer => x = 3 (LP gives 3.5).
  Model m;
  m.set_direction(Direction::kMaximize);
  const VarId x = m.add_int_var(0, 10, 1.0);
  m.add_constraint(LinearExpr().add(x, 2), Sense::kLe, 7);
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-6);
}

TEST(MilpTest, KnapsackAgainstBruteForce) {
  // 0/1 knapsack: values {6,10,12}, weights {1,2,3}, cap 5 => take 2+3 = 22.
  Model m;
  m.set_direction(Direction::kMaximize);
  const double values[] = {6, 10, 12};
  const double weights[] = {1, 2, 3};
  LinearExpr cap;
  for (int i = 0; i < 3; ++i) {
    const VarId v = m.add_binary_var(values[i]);
    cap.add(v, weights[i]);
  }
  m.add_constraint(std::move(cap), Sense::kLe, 5);
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 22.0, 1e-6);
  EXPECT_NEAR(s.x[0], 0.0, 1e-6);
}

TEST(MilpTest, InfeasibleInteger) {
  // 2x = 3 with x integer in [0, 5]: LP feasible, MILP infeasible.
  Model m;
  const VarId x = m.add_int_var(0, 5, 1.0);
  m.add_constraint(LinearExpr().add(x, 2), Sense::kEq, 3);
  EXPECT_EQ(MilpSolver().solve(m).status, SolveStatus::kInfeasible);
}

TEST(MilpTest, MixedIntegerContinuous) {
  // max x + y, x integer <= 2.5-ish via 2x <= 5, y continuous <= 1.3.
  Model m;
  m.set_direction(Direction::kMaximize);
  const VarId x = m.add_int_var(0, 10, 1.0);
  const VarId y = m.add_var(0, 1.3, 1.0);
  m.add_constraint(LinearExpr().add(x, 2), Sense::kLe, 5);
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-6);
  EXPECT_NEAR(s.x[1], 1.3, 1e-6);
  (void)x;
  (void)y;
}

class RandomKnapsackTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomKnapsackTest, MatchesExhaustiveSearch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 11);
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  std::vector<double> value(static_cast<std::size_t>(n)),
      weight(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    value[static_cast<std::size_t>(i)] = rng.uniform(1.0, 20.0);
    weight[static_cast<std::size_t>(i)] = rng.uniform(1.0, 10.0);
  }
  const double cap = rng.uniform(5.0, 25.0);

  Model m;
  m.set_direction(Direction::kMaximize);
  LinearExpr caprow;
  for (int i = 0; i < n; ++i) {
    const VarId v = m.add_binary_var(value[static_cast<std::size_t>(i)]);
    caprow.add(v, weight[static_cast<std::size_t>(i)]);
  }
  m.add_constraint(std::move(caprow), Sense::kLe, cap);
  const Solution s = MilpSolver().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);

  // Exhaustive reference.
  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double v = 0, w = 0;
    for (int i = 0; i < n; ++i)
      if (mask & (1 << i)) {
        v += value[static_cast<std::size_t>(i)];
        w += weight[static_cast<std::size_t>(i)];
      }
    if (w <= cap) best = std::max(best, v);
  }
  EXPECT_NEAR(s.objective, best, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKnapsackTest, ::testing::Range(0, 15));

// ---------------------------------------------------------------------
// Warm start: basis round-trip, dual repair, Bland fallback
// ---------------------------------------------------------------------

TEST(WarmStartTest, BasisRoundTripReusesOptimalBasis) {
  // Re-solving the same model from its own optimal basis must accept the
  // warm basis and land on the same optimum without a Phase I.
  Model m;
  m.set_direction(Direction::kMaximize);
  const VarId x = m.add_var(0, kInf, 3.0);
  const VarId y = m.add_var(0, kInf, 2.0);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 1), Sense::kLe, 4);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 3), Sense::kLe, 6);

  SimplexSolver solver;
  Basis basis;
  const Solution cold = solver.solve(m, &basis);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_FALSE(basis.empty());
  EXPECT_FALSE(solver.last_stats().warm_used);

  const Solution warm = solver.solve(m, &basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(solver.last_stats().warm_used);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  // The optimal basis is already optimal: no pivots needed.
  EXPECT_EQ(solver.last_stats().iterations, 0);
}

TEST(WarmStartTest, DualRepairAfterBoundTightening) {
  // Branch-and-bound access pattern: tighten one variable bound past its
  // basic value and re-solve warm — the dual simplex must repair the
  // single violated row instead of cold-starting.
  Model m;
  m.set_direction(Direction::kMaximize);
  const VarId x = m.add_var(0, kInf, 3.0);
  const VarId y = m.add_var(0, kInf, 2.0);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 1), Sense::kLe, 4);
  m.add_constraint(LinearExpr().add(x, 1).add(y, 3), Sense::kLe, 6);

  BoundedSimplex bs(m);
  Basis basis;
  const Solution cold = bs.solve(nullptr, &basis);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_NEAR(cold.x[0], 4.0, 1e-6);  // x basic at 4

  bs.set_var_bounds(x, 0.0, 2.5);  // cut below the optimal vertex
  const Solution warm = bs.solve(&basis, nullptr);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(bs.stats().warm_used);
  EXPECT_GT(bs.stats().dual_iterations, 0);
  EXPECT_NEAR(warm.x[0], 2.5, 1e-6);

  // Reference: cold solve of the tightened model agrees.
  BoundedSimplex ref(m);
  ref.set_var_bounds(x, 0.0, 2.5);
  const Solution check = ref.solve(nullptr, nullptr);
  ASSERT_EQ(check.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, check.objective, 1e-7);
  (void)y;
}

TEST(WarmStartTest, DegenerateDualExercisesBlandFallback) {
  // Zero objective => every dual pivot is degenerate (|z_enter| = 0). A
  // warm re-solve violating 32 rows at once must push the degenerate
  // streak past the Bland trigger and still terminate at an optimum.
  constexpr int kRows = 32;
  Model m;
  std::vector<VarId> xs, us;
  for (int i = 0; i < kRows; ++i) {
    xs.push_back(m.add_var(0.0, 1.0, 0.0));
    us.push_back(m.add_var(0.0, 1.0, 0.0));
  }
  for (int i = 0; i < kRows; ++i)
    m.add_constraint(LinearExpr().add(xs[static_cast<std::size_t>(i)], 1.0)
                         .add(us[static_cast<std::size_t>(i)], -1.0),
                     Sense::kLe, 0.0);

  BoundedSimplex bs(m);
  Basis basis;
  ASSERT_EQ(bs.solve(nullptr, &basis).status, SolveStatus::kOptimal);

  // Fix every x to 1: all rows become x_i - u_i = 1 - 0 > 0, violated.
  for (int i = 0; i < kRows; ++i)
    bs.set_var_bounds(xs[static_cast<std::size_t>(i)], 1.0, 1.0);
  const Solution warm = bs.solve(&basis, nullptr);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(bs.stats().warm_used);
  EXPECT_GE(bs.stats().dual_iterations, kRows);
  EXPECT_GT(bs.stats().bland_pivots, 0);
  EXPECT_TRUE(m.is_feasible(warm.x, 1e-6));
  for (int i = 0; i < kRows; ++i)
    EXPECT_NEAR(warm.x[static_cast<std::size_t>(2 * i + 1)], 1.0, 1e-6);
}

TEST(WarmStartTest, StaleBasisShapeFallsBackCold) {
  // A basis exported from a differently shaped model must be rejected
  // (cold fallback), not crash or corrupt the solve.
  Model small;
  small.add_var(0, 5, 1.0);
  small.add_constraint(LinearExpr().add(0, 1.0), Sense::kLe, 3.0);
  SimplexSolver solver;
  Basis basis;
  ASSERT_EQ(solver.solve(small, &basis).status, SolveStatus::kOptimal);

  Model big;
  big.add_var(0, 5, 1.0);
  big.add_var(0, 5, 2.0);
  big.add_constraint(LinearExpr().add(0, 1.0).add(1, 1.0), Sense::kLe, 4.0);
  big.add_constraint(LinearExpr().add(0, 1.0), Sense::kGe, 1.0);
  Basis stale = basis;
  const Solution s = solver.solve(big, &stale);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_FALSE(solver.last_stats().warm_used);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

// ---------------------------------------------------------------------
// MILP warm-vs-cold equivalence
// ---------------------------------------------------------------------

namespace {

/// Small ILP scheduling fixtures spanning the shapes the exact scheduler
/// produces: independent tasks, a chain, and a diamond.
std::vector<IlpProblem> ilp_fixtures() {
  std::vector<IlpProblem> out;
  {
    IlpProblem p;
    p.machine_rates = {1.0, 1.0};
    p.tasks.resize(3);
    p.tasks[0].size_mi = 1.0;
    p.tasks[1].size_mi = 2.0;
    p.tasks[2].size_mi = 3.0;
    out.push_back(std::move(p));
  }
  {
    IlpProblem p;
    p.machine_rates = {1.0, 2.0};
    p.tasks.resize(3);
    p.tasks[0].size_mi = 2.0;
    p.tasks[1].size_mi = 2.0;
    p.tasks[1].parents = {0};
    p.tasks[2].size_mi = 2.0;
    p.tasks[2].parents = {1};
    out.push_back(std::move(p));
  }
  {
    IlpProblem p;
    p.machine_rates = {1.0, 1.0};
    p.tasks.resize(4);
    p.tasks[0].size_mi = 1.0;
    p.tasks[1].size_mi = 2.0;
    p.tasks[1].parents = {0};
    p.tasks[2].size_mi = 2.0;
    p.tasks[2].parents = {0};
    p.tasks[3].size_mi = 1.0;
    p.tasks[3].parents = {1, 2};
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

TEST(MilpWarmStartTest, WarmMatchesColdOnIlpFixtures) {
  for (const IlpProblem& p : ilp_fixtures()) {
    const Model model = build_ilp_model(p, /*enforce_deadlines=*/true);

    MilpSolver::Options cold_opts;
    cold_opts.warm_start = false;
    MilpSolver cold(cold_opts);
    const Solution c = cold.solve(model);

    MilpSolver::Options warm_opts;
    warm_opts.warm_start = true;
    MilpSolver warm(warm_opts);
    const Solution w = warm.solve(model);

    ASSERT_EQ(w.status, c.status);
    if (c.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(w.objective, c.objective, 1e-6);
      EXPECT_TRUE(model.is_feasible(w.x, 1e-4));
      // Child nodes re-solve from the parent basis; an integral root
      // never branches, so only expect hits when the search did.
      if (warm.last_nodes() > 1) {
        EXPECT_GT(warm.last_warm_hits(), 0);
      }
    }
  }
}

TEST(MilpWarmStartTest, WarmMatchesColdOnRandomKnapsacks) {
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 389 + 7);
    const int n = static_cast<int>(rng.uniform_int(3, 10));
    Model m;
    m.set_direction(Direction::kMaximize);
    LinearExpr caprow;
    for (int i = 0; i < n; ++i)
      caprow.add(m.add_binary_var(rng.uniform(1.0, 20.0)),
                 rng.uniform(1.0, 10.0));
    m.add_constraint(std::move(caprow), Sense::kLe, rng.uniform(5.0, 25.0));

    MilpSolver::Options cold_opts;
    cold_opts.warm_start = false;
    MilpSolver cold(cold_opts);
    MilpSolver warm;  // defaults: warm_start on
    const Solution c = cold.solve(m);
    const Solution w = warm.solve(m);
    ASSERT_EQ(w.status, c.status) << "seed " << seed;
    EXPECT_NEAR(w.objective, c.objective, 1e-6) << "seed " << seed;
  }
}

TEST(StatusTest, ToStringCoversAll) {
  EXPECT_STREQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
  EXPECT_STREQ(to_string(SolveStatus::kNodeLimit), "node-limit");
  EXPECT_STREQ(to_string(SolveStatus::kNoSolution), "no-solution");
}

}  // namespace
}  // namespace dsp::lp
