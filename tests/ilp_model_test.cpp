// Tests for the §III ILP model: exact solves vs hand-computed optima and
// vs brute force, relax-and-round feasibility, list scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "analysis/schedule_check.h"
#include "core/ilp_model.h"
#include "util/rng.h"

namespace dsp {
namespace {

/// Completion of task `t` started at `start_s` on machine `m`: execution
/// plus preemption padding, which holds the machine too.
double completion_s(const IlpProblem& p, std::size_t t, int m, double start_s) {
  return start_s + p.tasks[t].size_mi / p.machine_rates[static_cast<std::size_t>(m)] +
         static_cast<double>(p.tasks[t].n_preempt) * p.recovery_s;
}

/// Verifies a schedule is feasible: precedence respected and no two tasks
/// overlap on the same machine.
void expect_feasible_schedule(const IlpProblem& p, const IlpScheduleResult& r,
                              double tol = 1e-6) {
  ASSERT_EQ(r.machine_of.size(), p.tasks.size());
  ASSERT_EQ(r.start_s.size(), p.tasks.size());
  auto finish = [&](std::size_t t) {
    return completion_s(p, t, r.machine_of[t], r.start_s[t]);
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

TEST(IlpModelTest, PreemptionPaddingOccupiesTheMachine) {
  // Two 1 s tasks on one machine, each padded by one 0.5 s recovery: the
  // second starts only when the first's padding ends, at 1.5 s.
  IlpProblem p;
  p.machine_rates = {1000.0};
  p.recovery_s = 0.5;
  for (int i = 0; i < 2; ++i) {
    IlpTask t;
    t.size_mi = 1000.0;
    t.n_preempt = 1;
    p.tasks.push_back(t);
  }
  const IlpScheduleResult r = solve_ilp_schedule(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.makespan_s, 3.0, 1e-6);
  analysis::Report report;
  analysis::check_schedule(analysis::make_schedule_doc(p, r), {}, report);
  for (const analysis::Diagnostic& d : report.diagnostics())
    ADD_FAILURE() << d.rule << " " << d.subject << ": " << d.message;
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
  // T assignment rows, T makespan rows (4), M load cuts, two big-M rows
  // per y.
  EXPECT_EQ(m.constraint_count(), T + T + M + 2 * (T * (T - 1) / 2) * M);
  EXPECT_TRUE(m.has_integers());

  // Chain 2 -> 0 -> 1 (a parent may have the larger index) plus a free
  // task 3: precedence orders every pair of the chain, so only the three
  // pairs with task 3 get ordering binaries.
  IlpProblem chain = p;
  chain.tasks[0].parents = {2};
  chain.tasks[1].parents = {0};
  const lp::Model c = build_ilp_model(chain, true);
  const std::size_t unordered = 3, edges = 2;
  EXPECT_EQ(c.var_count(), 1 + T + T * M + unordered * M);
  EXPECT_EQ(c.constraint_count(), T + T + M + edges + 2 * unordered * M);
}

// ---------------------------------------------------------------------
// Exact solves vs brute force
// ---------------------------------------------------------------------

/// A random DAG of `tasks` tasks on `machines` machines, with task indices
/// shuffled so parents are not always the lower index.
IlpProblem random_problem(Rng& rng, int tasks, int machines) {
  IlpProblem p;
  for (int m = 0; m < machines; ++m)
    p.machine_rates.push_back(rng.uniform(800.0, 2000.0));
  std::vector<int> label(static_cast<std::size_t>(tasks));
  std::iota(label.begin(), label.end(), 0);
  for (std::size_t i = label.size() - 1; i > 0; --i)
    std::swap(label[i], label[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i)))]);
  p.tasks.resize(label.size());
  for (std::size_t i = 0; i < label.size(); ++i) {
    IlpTask& t = p.tasks[static_cast<std::size_t>(label[i])];
    t.size_mi = rng.uniform(500.0, 4000.0);
    for (std::size_t j = 0; j < i; ++j)
      if (rng.chance(0.3)) t.parents.push_back(label[j]);
  }
  if (rng.chance(0.3)) {
    p.recovery_s = rng.uniform(0.1, 1.0);
    for (IlpTask& t : p.tasks) t.n_preempt = static_cast<int>(rng.uniform_int(0, 2));
  }
  if (rng.chance(0.3))
    for (IlpTask& t : p.tasks)
      if (rng.chance(0.5)) t.deadline_s = rng.uniform(1.0, 8.0);
  return p;
}

/// Appends every topological order of `p`'s dependency DAG that extends
/// `prefix` to `out`.
void topological_orders(const IlpProblem& p, std::vector<int>& prefix,
                        std::vector<char>& placed,
                        std::vector<std::vector<int>>& out) {
  if (prefix.size() == p.tasks.size()) {
    out.push_back(prefix);
    return;
  }
  for (std::size_t t = 0; t < p.tasks.size(); ++t) {
    if (placed[t]) continue;
    const auto& parents = p.tasks[t].parents;
    if (!std::all_of(parents.begin(), parents.end(), [&](int q) {
          return placed[static_cast<std::size_t>(q)] != 0;
        }))
      continue;
    placed[t] = 1;
    prefix.push_back(static_cast<int>(t));
    topological_orders(p, prefix, placed, out);
    prefix.pop_back();
    placed[t] = 0;
  }
}

/// The optimal makespans of `p` by exhaustive search: the minimum of
/// list_schedule_fixed over every placement and every topological order,
/// over all schedules and over those that meet every deadline (infinity
/// when none does). Some list schedule is optimal: listing any feasible
/// schedule's tasks by start time never starts a task later.
std::pair<double, double> brute_force_makespans(const IlpProblem& p) {
  const std::size_t T = p.tasks.size();
  const std::size_t M = p.machine_rates.size();
  std::vector<std::vector<int>> orders;
  std::vector<int> prefix;
  std::vector<char> placed(T, 0);
  topological_orders(p, prefix, placed, orders);
  double best = std::numeric_limits<double>::infinity();
  double best_on_time = best;
  std::vector<int> machine_of(T, 0);
  std::vector<double> start;
  for (;;) {
    for (const std::vector<int>& order : orders) {
      const double makespan = list_schedule_fixed(p, machine_of, order, start);
      best = std::min(best, makespan);
      bool on_time = true;
      for (std::size_t t = 0; t < T; ++t)
        on_time = on_time && completion_s(p, t, machine_of[t], start[t]) <=
                                 p.tasks[t].deadline_s;
      if (on_time) best_on_time = std::min(best_on_time, makespan);
    }
    // Next placement, counting in base M.
    std::size_t t = 0;
    while (t < T && ++machine_of[t] == static_cast<int>(M)) machine_of[t++] = 0;
    if (t == T) break;
  }
  return {best, best_on_time};
}

TEST(IlpModelTest, ExactMatchesBruteForceOnRandomInstances) {
  Rng rng(2018);
  int with_padding = 0, deadlines_met = 0, deadlines_dropped = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const IlpProblem p = random_problem(
        rng, static_cast<int>(rng.uniform_int(3, 6)),
        static_cast<int>(rng.uniform_int(1, 3)));
    const auto [best, best_on_time] = brute_force_makespans(p);
    const bool on_time = std::isfinite(best_on_time);
    const auto any_task = [&p](auto pred) {
      return std::any_of(p.tasks.begin(), p.tasks.end(), pred);
    };
    const bool has_deadline =
        any_task([](const IlpTask& t) { return std::isfinite(t.deadline_s); });
    with_padding += any_task([](const IlpTask& t) { return t.n_preempt > 0; });
    if (has_deadline) (on_time ? deadlines_met : deadlines_dropped) += 1;

    const IlpScheduleResult r = solve_ilp_schedule(p);
    ASSERT_EQ(r.status, lp::SolveStatus::kOptimal) << "trial " << trial;
    const double expected = on_time ? best_on_time : best;
    EXPECT_NEAR(r.makespan_s, expected, 1e-6 * expected) << "trial " << trial;
    expect_feasible_schedule(p, r);
    if (!on_time) continue;
    for (std::size_t t = 0; t < p.tasks.size(); ++t)
      EXPECT_LE(completion_s(p, t, r.machine_of[t], r.start_s[t]),
                p.tasks[t].deadline_s + 1e-6)
          << "trial " << trial << " task " << t;
  }
  // The draw covers every branch it is meant to.
  EXPECT_GT(with_padding, 30);
  EXPECT_GT(deadlines_met, 20);
  EXPECT_GT(deadlines_dropped, 10);
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

TEST(RelaxRoundTest, LoadRowsCountPreemptionPadding) {
  // Two independent 1 s tasks, each padded by one 1 s preemption. Loads
  // counted without padding (1 s per task) fit both on machine 0 under
  // L = 2 s, the LP then rounds them together and the list pass runs them
  // back to back (4 s); counted with it they split, 2 s each.
  IlpProblem p;
  p.machine_rates = {1000.0, 1000.0};
  p.recovery_s = 1.0;
  for (int i = 0; i < 2; ++i) {
    IlpTask t;
    t.size_mi = 1000.0;
    t.n_preempt = 1;
    p.tasks.push_back(t);
  }
  const IlpScheduleResult r = solve_relax_round(p);
  ASSERT_TRUE(r.ok());
  expect_feasible_schedule(p, r);
  EXPECT_NE(r.machine_of[0], r.machine_of[1]);
  EXPECT_DOUBLE_EQ(r.makespan_s, 2.0);
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
