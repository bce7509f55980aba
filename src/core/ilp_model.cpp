#include "core/ilp_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <queue>

#include "lp/milp.h"
#include "util/log.h"

namespace dsp {
namespace {

double exec_seconds(const IlpProblem& p, std::size_t task, std::size_t machine) {
  return p.tasks[task].size_mi / p.machine_rates[machine];
}

double completion_padding(const IlpProblem& p, std::size_t task) {
  return static_cast<double>(p.tasks[task].n_preempt) * p.recovery_s;
}

/// Seconds `task` holds `machine`: execution plus preemption padding.
double busy_seconds(const IlpProblem& p, std::size_t task, std::size_t machine) {
  return exec_seconds(p, task, machine) + completion_padding(p, task);
}

/// reach[i * T + j] is true when task i is an ancestor of task j along
/// `parents` (Warshall's transitive closure), so (7) already makes i
/// finish before j starts.
std::vector<char> precedence_closure(const IlpProblem& p) {
  const std::size_t T = p.tasks.size();
  std::vector<char> reach(T * T, 0);
  for (std::size_t c = 0; c < T; ++c)
    for (int parent : p.tasks[c].parents)
      reach[static_cast<std::size_t>(parent) * T + c] = 1;
  for (std::size_t k = 0; k < T; ++k)
    for (std::size_t i = 0; i < T; ++i)
      if (reach[i * T + k])
        for (std::size_t j = 0; j < T; ++j)
          if (reach[k * T + j]) reach[i * T + j] = 1;
  return reach;
}

/// Big-M: an upper bound on any reasonable schedule horizon — running every
/// task back-to-back on the slowest machine plus all preemption padding.
double big_m(const IlpProblem& p) {
  const double slowest =
      *std::min_element(p.machine_rates.begin(), p.machine_rates.end());
  double total = 1.0;
  for (std::size_t t = 0; t < p.tasks.size(); ++t)
    total += p.tasks[t].size_mi / slowest + completion_padding(p, t);
  return total;
}

}  // namespace

lp::Model build_ilp_model(const IlpProblem& problem, bool enforce_deadlines) {
  const std::size_t T = problem.tasks.size();
  const std::size_t M = problem.machine_rates.size();
  const double horizon = big_m(problem);

  lp::Model model;
  model.set_direction(lp::Direction::kMinimize);

  // L_MS: the makespan, the sole objective term (3).
  const lp::VarId var_L = model.add_var(0.0, horizon, 1.0);

  // t_s[t]: start times (11).
  std::vector<lp::VarId> var_start(T);
  for (std::size_t t = 0; t < T; ++t)
    var_start[t] = model.add_var(0.0, horizon, 0.0);

  // x[t][m]: placement binaries (10).
  std::vector<std::vector<lp::VarId>> var_x(T, std::vector<lp::VarId>(M));
  for (std::size_t t = 0; t < T; ++t)
    for (std::size_t m = 0; m < M; ++m) var_x[t][m] = model.add_binary_var(0.0);

  // Each task runs on exactly one machine.
  for (std::size_t t = 0; t < T; ++t) {
    lp::LinearExpr expr;
    for (std::size_t m = 0; m < M; ++m) expr.add(var_x[t][m], 1.0);
    model.add_constraint(std::move(expr), lp::Sense::kEq, 1.0);
  }

  // (4): completion (start + exec + preemption padding) <= L_MS.
  for (std::size_t t = 0; t < T; ++t) {
    lp::LinearExpr expr;
    expr.add(var_start[t], 1.0);
    for (std::size_t m = 0; m < M; ++m)
      expr.add(var_x[t][m], busy_seconds(problem, t, m));
    expr.add(var_L, -1.0);
    model.add_constraint(std::move(expr), lp::Sense::kLe, 0.0);
  }

  // Load cut: the tasks on a machine run one at a time within [0, L_MS],
  // so their busy seconds sum to at most L_MS. (5)/(8) imply it for
  // integral x; the relaxation, whose big-M rows are slack at fractional
  // x, does not.
  for (std::size_t m = 0; m < M; ++m) {
    lp::LinearExpr expr;
    for (std::size_t t = 0; t < T; ++t)
      expr.add(var_x[t][m], busy_seconds(problem, t, m));
    expr.add(var_L, -1.0);
    model.add_constraint(std::move(expr), lp::Sense::kLe, 0.0);
  }

  // (6): per-task deadlines.
  if (enforce_deadlines) {
    for (std::size_t t = 0; t < T; ++t) {
      if (!std::isfinite(problem.tasks[t].deadline_s)) continue;
      lp::LinearExpr expr;
      expr.add(var_start[t], 1.0);
      for (std::size_t m = 0; m < M; ++m)
        expr.add(var_x[t][m], busy_seconds(problem, t, m));
      model.add_constraint(std::move(expr), lp::Sense::kLe,
                           problem.tasks[t].deadline_s);
    }
  }

  // (7): precedence — child starts after parent's completion on whichever
  // machine the parent was assigned.
  for (std::size_t c = 0; c < T; ++c) {
    for (int parent : problem.tasks[c].parents) {
      const auto pt = static_cast<std::size_t>(parent);
      lp::LinearExpr expr;
      expr.add(var_start[c], 1.0);
      expr.add(var_start[pt], -1.0);
      for (std::size_t m = 0; m < M; ++m)
        expr.add(var_x[pt][m], -busy_seconds(problem, pt, m));
      model.add_constraint(std::move(expr), lp::Sense::kGe, 0.0);
    }
  }

  // (5)/(8): non-overlap per machine via ordering binaries y[i][j][m]
  // (i < j; y = 1 means i precedes j on m), big-M deactivated unless both
  // tasks are placed on m. A task holds its machine for its busy seconds.
  // Pairs where one task is an ancestor of the other get no y: (7) along
  // the dependency chain already orders them on every machine.
  const std::vector<char> reach = precedence_closure(problem);
  for (std::size_t i = 0; i < T; ++i) {
    for (std::size_t j = i + 1; j < T; ++j) {
      if (reach[i * T + j] || reach[j * T + i]) continue;
      for (std::size_t m = 0; m < M; ++m) {
        const lp::VarId y = model.add_binary_var(0.0);
        // i before j: ts_i + busy_i <= ts_j + M(1-y) + M(1-x_im) + M(1-x_jm)
        {
          lp::LinearExpr expr;
          expr.add(var_start[i], 1.0);
          expr.add(var_start[j], -1.0);
          expr.add(y, horizon);
          expr.add(var_x[i][m], horizon);
          expr.add(var_x[j][m], horizon);
          model.add_constraint(std::move(expr), lp::Sense::kLe,
                               3.0 * horizon - busy_seconds(problem, i, m));
        }
        // j before i: ts_j + busy_j <= ts_i + M*y + M(1-x_im) + M(1-x_jm)
        {
          lp::LinearExpr expr;
          expr.add(var_start[j], 1.0);
          expr.add(var_start[i], -1.0);
          expr.add(y, -horizon);
          expr.add(var_x[i][m], horizon);
          expr.add(var_x[j][m], horizon);
          model.add_constraint(std::move(expr), lp::Sense::kLe,
                               2.0 * horizon - busy_seconds(problem, j, m));
        }
      }
    }
  }
  return model;
}

IlpScheduleResult solve_ilp_schedule(const IlpProblem& problem) {
  assert(!problem.tasks.empty() && !problem.machine_rates.empty());
  const std::size_t T = problem.tasks.size();
  const std::size_t M = problem.machine_rates.size();

  const lp::MilpSolver solver;
  lp::Model model = build_ilp_model(problem, /*enforce_deadlines=*/true);
  lp::Solution sol = solver.solve(model);
  if (sol.status == lp::SolveStatus::kInfeasible) {
    DSP_INFO("ILP infeasible with deadlines; retrying without constraint (6)");
    model = build_ilp_model(problem, /*enforce_deadlines=*/false);
    sol = solver.solve(model);
  }

  IlpScheduleResult result;
  result.status = sol.status;
  if (!sol.ok()) return result;

  result.makespan_s = sol.x[0];
  result.machine_of.resize(T, 0);
  result.start_s.resize(T, 0.0);
  for (std::size_t t = 0; t < T; ++t) {
    result.start_s[t] = sol.x[1 + t];
    for (std::size_t m = 0; m < M; ++m) {
      const double x = sol.x[1 + T + t * M + m];
      if (x > 0.5) result.machine_of[t] = static_cast<int>(m);
    }
  }
  return result;
}

double list_schedule_fixed(const IlpProblem& problem,
                           const std::vector<int>& machine_of,
                           const std::vector<int>& order,
                           std::vector<double>& start_s) {
  const std::size_t T = problem.tasks.size();
  assert(machine_of.size() == T && order.size() == T);
  start_s.assign(T, 0.0);
  std::vector<double> machine_free(problem.machine_rates.size(), 0.0);
  std::vector<double> finish(T, 0.0);
  double makespan = 0.0;
  for (int idx : order) {
    const auto t = static_cast<std::size_t>(idx);
    const auto m = static_cast<std::size_t>(machine_of[t]);
    double est = machine_free[m];
    for (int parent : problem.tasks[t].parents)
      est = std::max(est, finish[static_cast<std::size_t>(parent)]);
    start_s[t] = est;
    finish[t] = est + busy_seconds(problem, t, m);
    machine_free[m] = finish[t];
    makespan = std::max(makespan, finish[t]);
  }
  return makespan;
}

IlpScheduleResult solve_relax_round(const IlpProblem& problem) {
  const std::size_t T = problem.tasks.size();
  const std::size_t M = problem.machine_rates.size();

  // LP relaxation of the placement model. The ordering binaries make the
  // relaxation weak, so we relax a *reduced* model without (5)/(8) — their
  // role is restored by the list-scheduling pass below.
  lp::Model model;
  model.set_direction(lp::Direction::kMinimize);
  const lp::VarId var_L = model.add_var(0.0, lp::kInf, 1.0);
  std::vector<lp::VarId> var_start(T);
  for (std::size_t t = 0; t < T; ++t)
    var_start[t] = model.add_var(0.0, lp::kInf, 0.0);
  std::vector<std::vector<lp::VarId>> var_x(T, std::vector<lp::VarId>(M));
  for (std::size_t t = 0; t < T; ++t)
    for (std::size_t m = 0; m < M; ++m)
      var_x[t][m] = model.add_var(0.0, 1.0, 0.0);  // continuous in [0,1]
  for (std::size_t t = 0; t < T; ++t) {
    lp::LinearExpr assign;
    for (std::size_t m = 0; m < M; ++m) assign.add(var_x[t][m], 1.0);
    model.add_constraint(std::move(assign), lp::Sense::kEq, 1.0);

    lp::LinearExpr mk;
    mk.add(var_start[t], 1.0);
    for (std::size_t m = 0; m < M; ++m)
      mk.add(var_x[t][m], busy_seconds(problem, t, m));
    mk.add(var_L, -1.0);
    model.add_constraint(std::move(mk), lp::Sense::kLe, 0.0);
  }
  // Machine load <= L (a valid relaxation of non-overlap).
  for (std::size_t m = 0; m < M; ++m) {
    lp::LinearExpr load;
    for (std::size_t t = 0; t < T; ++t)
      load.add(var_x[t][m], busy_seconds(problem, t, m));
    load.add(var_L, -1.0);
    model.add_constraint(std::move(load), lp::Sense::kLe, 0.0);
  }
  for (std::size_t c = 0; c < T; ++c) {
    for (int parent : problem.tasks[c].parents) {
      const auto pt = static_cast<std::size_t>(parent);
      lp::LinearExpr prec;
      prec.add(var_start[c], 1.0);
      prec.add(var_start[pt], -1.0);
      for (std::size_t m = 0; m < M; ++m)
        prec.add(var_x[pt][m], -busy_seconds(problem, pt, m));
      model.add_constraint(std::move(prec), lp::Sense::kGe, 0.0);
    }
  }

  IlpScheduleResult result;
  const lp::Solution sol = lp::SimplexSolver().solve(model);
  std::vector<int> machine_of(T, 0);
  if (sol.status == lp::SolveStatus::kOptimal) {
    // Round each task to its largest-fraction machine.
    for (std::size_t t = 0; t < T; ++t) {
      double best = -1.0;
      for (std::size_t m = 0; m < M; ++m) {
        const double x = sol.x[1 + T + t * M + m];
        if (x > best) {
          best = x;
          machine_of[t] = static_cast<int>(m);
        }
      }
    }
    result.status = lp::SolveStatus::kOptimal;
  } else {
    // Degenerate fallback: fastest machine for everything; the list pass
    // still yields a valid schedule.
    const auto fastest = static_cast<int>(
        std::max_element(problem.machine_rates.begin(), problem.machine_rates.end()) -
        problem.machine_rates.begin());
    std::fill(machine_of.begin(), machine_of.end(), fastest);
    result.status = lp::SolveStatus::kNodeLimit;
  }

  // Topological order by LP start time (ties by index): feasible because
  // the LP enforces precedence on start times... except equal starts; a
  // stable Kahn pass guarantees correctness.
  std::vector<int> indegree(T, 0);
  std::vector<std::vector<int>> children(T);
  for (std::size_t c = 0; c < T; ++c)
    for (int p : problem.tasks[c].parents) {
      children[static_cast<std::size_t>(p)].push_back(static_cast<int>(c));
      ++indegree[c];
    }
  auto start_of = [&](int t) {
    return sol.status == lp::SolveStatus::kOptimal
               ? sol.x[1 + static_cast<std::size_t>(t)]
               : 0.0;
  };
  using QItem = std::pair<double, int>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> ready;
  for (std::size_t t = 0; t < T; ++t)
    if (indegree[t] == 0) ready.emplace(start_of(static_cast<int>(t)), static_cast<int>(t));
  std::vector<int> order;
  order.reserve(T);
  while (!ready.empty()) {
    const int t = ready.top().second;
    ready.pop();
    order.push_back(t);
    for (int c : children[static_cast<std::size_t>(t)])
      if (--indegree[static_cast<std::size_t>(c)] == 0)
        ready.emplace(start_of(c), c);
  }
  assert(order.size() == T && "IlpProblem dependency graph must be acyclic");

  result.machine_of = std::move(machine_of);
  result.makespan_s =
      list_schedule_fixed(problem, result.machine_of, order, result.start_s);
  return result;
}

}  // namespace dsp
