// Tests for the §III ILP model: exact solves vs hand-computed optima,
// relax-and-round feasibility, list scheduling.
#include <gtest/gtest.h>

#include <cmath>

#include "core/ilp_model.h"
#include "util/rng.h"

namespace dsp {
namespace {

/// Verifies a schedule is feasible: precedence respected and no two tasks
/// overlap on the same machine.
void expect_feasible_schedule(const IlpProblem& p, const IlpScheduleResult& r,
                              double tol = 1e-6) {
  ASSERT_EQ(r.machine_of.size(), p.tasks.size());
  ASSERT_EQ(r.start_s.size(), p.tasks.size());
  auto finish = [&](std::size_t t) {
    const auto m = static_cast<std::size_t>(r.machine_of[t]);
    return r.start_s[t] + p.tasks[t].size_mi / p.machine_rates[m] +
           static_cast<double>(p.tasks[t].n_preempt) * p.recovery_s;
  };
  for (std::size_t t = 0; t < p.tasks.size(); ++t) {
    EXPECT_GE(r.start_s[t], -tol);
    EXPECT_LE(finish(t), r.makespan_s + tol) << "task " << t;
    for (int parent : p.tasks[t].parents)
      EXPECT_GE(r.start_s[t] + tol, finish(static_cast<std::size_t>(parent)))
          << "task " << t << " starts before parent " << parent << " ends";
    for (std::size_t u = t + 1; u < p.tasks.size(); ++u) {
      if (r.machine_of[t] != r.machine_of[u]) continue;
      const bool disjoint = finish(t) <= r.start_s[u] + tol ||
                            finish(u) <= r.start_s[t] + tol;
      EXPECT_TRUE(disjoint) << "overlap between " << t << " and " << u;
    }
  }
}

IlpProblem two_machine_problem() {
  // Four independent unit tasks (1000 MI at 1000 MIPS = 1 s each) on two
  // machines: optimal makespan 2 s.
  IlpProblem p;
  p.machine_rates = {1000.0, 1000.0};
  for (int i = 0; i < 4; ++i) {
    IlpTask t;
    t.size_mi = 1000.0;
    p.tasks.push_back(t);
  }
  return p;
}

// ---------------------------------------------------------------------
// Exact solves
// ---------------------------------------------------------------------

TEST(IlpModelTest, SingleTaskSingleMachine) {
  IlpProblem p;
  p.machine_rates = {500.0};
  IlpTask t;
  t.size_mi = 1000.0;
  p.tasks.push_back(t);
  const IlpScheduleResult r = solve_ilp_schedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.makespan_s, 2.0, 1e-5);
  EXPECT_NEAR(r.start_s[0], 0.0, 1e-5);
  expect_feasible_schedule(p, r);
}

TEST(IlpModelTest, IndependentTasksBalanceAcrossMachines) {
  const IlpProblem p = two_machine_problem();
  const IlpScheduleResult r = solve_ilp_schedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.makespan_s, 2.0, 1e-4);
  expect_feasible_schedule(p, r);
}

TEST(IlpModelTest, ChainForcesSequentialMakespan) {
  IlpProblem p;
  p.machine_rates = {1000.0, 1000.0};
  for (int i = 0; i < 3; ++i) {
    IlpTask t;
    t.size_mi = 1000.0;
    if (i > 0) t.parents.push_back(i - 1);
    p.tasks.push_back(t);
  }
  const IlpScheduleResult r = solve_ilp_schedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.makespan_s, 3.0, 1e-4);
  expect_feasible_schedule(p, r);
}

TEST(IlpModelTest, FasterMachinePreferred) {
  IlpProblem p;
  p.machine_rates = {500.0, 2000.0};
  IlpTask t;
  t.size_mi = 2000.0;
  p.tasks.push_back(t);
  const IlpScheduleResult r = solve_ilp_schedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.machine_of[0], 1);
  EXPECT_NEAR(r.makespan_s, 1.0, 1e-5);
}

TEST(IlpModelTest, DiamondUsesParallelMiddle) {
  // 0 -> {1,2} -> 3, unit tasks, 2 machines: optimal 3 s (middle pair in
  // parallel).
  IlpProblem p;
  p.machine_rates = {1000.0, 1000.0};
  for (int i = 0; i < 4; ++i) {
    IlpTask t;
    t.size_mi = 1000.0;
    p.tasks.push_back(t);
  }
  p.tasks[1].parents = {0};
  p.tasks[2].parents = {0};
  p.tasks[3].parents = {1, 2};
  const IlpScheduleResult r = solve_ilp_schedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.makespan_s, 3.0, 1e-4);
  expect_feasible_schedule(p, r);
}

TEST(IlpModelTest, PreemptionPaddingExtendsMakespan) {
  IlpProblem p;
  p.machine_rates = {1000.0};
  p.recovery_s = 0.5;
  IlpTask t;
  t.size_mi = 1000.0;
  t.n_preempt = 2;
  p.tasks.push_back(t);
  const IlpScheduleResult r = solve_ilp_schedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.makespan_s, 2.0, 1e-5);  // 1 s exec + 2 * 0.5 s padding
}

TEST(IlpModelTest, InfeasibleDeadlineRelaxedWhenAllowed) {
  IlpProblem p;
  p.machine_rates = {1000.0};
  IlpTask t;
  t.size_mi = 5000.0;
  t.deadline_s = 1.0;  // impossible: needs 5 s
  p.tasks.push_back(t);
  const IlpScheduleResult r = solve_ilp_schedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.makespan_s, 5.0, 1e-4);
}

TEST(IlpModelTest, DeadlineSteersPlacement) {
  // Two tasks, one machine fast, one slow. Task 0 has a tight deadline
  // only the fast machine meets; the other task must yield it.
  IlpProblem p;
  p.machine_rates = {2000.0, 500.0};
  IlpTask a;
  a.size_mi = 2000.0;
  a.deadline_s = 1.05;
  IlpTask b;
  b.size_mi = 500.0;
  p.tasks = {a, b};
  const IlpScheduleResult r = solve_ilp_schedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.machine_of[0], 0);
  EXPECT_NEAR(r.start_s[0], 0.0, 0.06);
  expect_feasible_schedule(p, r);
}

TEST(IlpModelTest, ModelVariableLayout) {
  const IlpProblem p = two_machine_problem();
  const lp::Model m = build_ilp_model(p, true);
  const std::size_t T = 4, M = 2;
  // L + T starts + T*M x + C(T,2)*M y.
  EXPECT_EQ(m.var_count(), 1 + T + T * M + (T * (T - 1) / 2) * M);
  EXPECT_TRUE(m.has_integers());
}

// ---------------------------------------------------------------------
// Relax-and-round
// ---------------------------------------------------------------------

TEST(RelaxRoundTest, ProducesFeasibleSchedule) {
  IlpProblem p;
  p.machine_rates = {1000.0, 1500.0};
  for (int i = 0; i < 6; ++i) {
    IlpTask t;
    t.size_mi = 500.0 + 250.0 * i;
    p.tasks.push_back(t);
  }
  p.tasks[2].parents = {0, 1};
  p.tasks[4].parents = {2};
  p.tasks[5].parents = {3};
  const IlpScheduleResult r = solve_relax_round(p);
  ASSERT_TRUE(r.ok());
  expect_feasible_schedule(p, r);
}

TEST(RelaxRoundTest, WithinFactorOfExactOnSmallInstances) {
  Rng rng(71);
  for (int trial = 0; trial < 6; ++trial) {
    IlpProblem p;
    p.machine_rates = {1000.0, 1000.0};
    const int n = static_cast<int>(rng.uniform_int(3, 5));
    for (int i = 0; i < n; ++i) {
      IlpTask t;
      t.size_mi = rng.uniform(500.0, 2000.0);
      if (i > 0 && rng.chance(0.5))
        t.parents.push_back(static_cast<int>(rng.uniform_int(0, i - 1)));
      p.tasks.push_back(t);
    }
    const IlpScheduleResult exact = solve_ilp_schedule(p);
    const IlpScheduleResult rounded = solve_relax_round(p);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(rounded.ok());
    expect_feasible_schedule(p, rounded);
    EXPECT_GE(rounded.makespan_s, exact.makespan_s - 1e-6);
    EXPECT_LE(rounded.makespan_s, exact.makespan_s * 2.0 + 1e-6)
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------
// List scheduling
// ---------------------------------------------------------------------

TEST(ListScheduleTest, FixedPlacementChain) {
  IlpProblem p;
  p.machine_rates = {1000.0};
  for (int i = 0; i < 3; ++i) {
    IlpTask t;
    t.size_mi = 1000.0;
    if (i > 0) t.parents.push_back(i - 1);
    p.tasks.push_back(t);
  }
  std::vector<double> start;
  const double makespan =
      list_schedule_fixed(p, {0, 0, 0}, {0, 1, 2}, start);
  EXPECT_NEAR(makespan, 3.0, 1e-9);
  EXPECT_NEAR(start[2], 2.0, 1e-9);
}

TEST(ListScheduleTest, ParallelMachines) {
  IlpProblem p;
  p.machine_rates = {1000.0, 1000.0};
  for (int i = 0; i < 2; ++i) {
    IlpTask t;
    t.size_mi = 1000.0;
    p.tasks.push_back(t);
  }
  std::vector<double> start;
  const double makespan = list_schedule_fixed(p, {0, 1}, {0, 1}, start);
  EXPECT_NEAR(makespan, 1.0, 1e-9);
}

}  // namespace
}  // namespace dsp
