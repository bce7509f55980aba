// Linear/integer programming model builder.
//
// The paper solves its §III makespan formulation with CPLEX; this module is
// the from-scratch substitute. A Model is a list of bounded (optionally
// integral) variables, linear constraints and a linear objective; it is
// solved by SimplexSolver (continuous relaxation) or MilpSolver (branch &
// bound over the integral variables).
#pragma once

#include <cassert>
#include <limits>
#include <utility>
#include <vector>

namespace dsp::lp {

/// Variable index within a Model.
using VarId = int;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Constraint sense.
enum class Sense { kLe, kGe, kEq };

/// Sparse linear expression: sum of coeff * var terms.
class LinearExpr {
 public:
  LinearExpr() = default;

  /// Adds `coeff * var`; repeated vars are merged by the solvers.
  LinearExpr& add(VarId var, double coeff) {
    terms_.emplace_back(var, coeff);
    return *this;
  }

  const std::vector<std::pair<VarId, double>>& terms() const { return terms_; }
  bool empty() const { return terms_.empty(); }

 private:
  std::vector<std::pair<VarId, double>> terms_;
};

/// Variable metadata.
struct Variable {
  double lower = 0.0;
  double upper = kInf;
  double objective = 0.0;  ///< Coefficient in the objective.
  bool is_integer = false;
};

/// Constraint row.
struct Constraint {
  LinearExpr expr;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
};

/// Optimization direction.
enum class Direction { kMinimize, kMaximize };

/// An LP/MILP model under construction.
class Model {
 public:
  /// Adds a continuous variable; returns its id.
  VarId add_var(double lower, double upper, double objective) {
    vars_.push_back({lower, upper, objective, false});
    return static_cast<VarId>(vars_.size()) - 1;
  }

  /// Adds an integer variable.
  VarId add_int_var(double lower, double upper, double objective) {
    vars_.push_back({lower, upper, objective, true});
    return static_cast<VarId>(vars_.size()) - 1;
  }

  /// Adds a binary (0/1) variable.
  VarId add_binary_var(double objective) {
    return add_int_var(0.0, 1.0, objective);
  }

  /// Adds a constraint `expr sense rhs`.
  void add_constraint(LinearExpr expr, Sense sense, double rhs) {
    constraints_.push_back({std::move(expr), sense, rhs});
  }

  void set_direction(Direction d) { direction_ = d; }
  Direction direction() const { return direction_; }

  std::size_t var_count() const { return vars_.size(); }
  std::size_t constraint_count() const { return constraints_.size(); }
  const Variable& var(VarId v) const { return vars_.at(static_cast<std::size_t>(v)); }
  const std::vector<Variable>& vars() const { return vars_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// True when any variable is integral (i.e. MILP, not plain LP).
  bool has_integers() const {
    for (const auto& v : vars_)
      if (v.is_integer) return true;
    return false;
  }

  /// Evaluates the objective at a point.
  double objective_value(const std::vector<double>& x) const {
    assert(x.size() == vars_.size());
    double obj = 0.0;
    for (std::size_t i = 0; i < vars_.size(); ++i) obj += vars_[i].objective * x[i];
    return obj;
  }

  /// Checks feasibility of a point within `tol`.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<Variable> vars_;
  std::vector<Constraint> constraints_;
  Direction direction_ = Direction::kMinimize;
};

/// Solver status.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,  ///< Simplex hit its pivot cap.
  kNodeLimit,       ///< Branch & bound hit its node cap (best incumbent returned).
  kNoSolution,      ///< Node/iteration limit hit with no incumbent found.
};

const char* to_string(SolveStatus s);

/// Result of an LP or MILP solve.
struct Solution {
  SolveStatus status = SolveStatus::kNoSolution;
  double objective = 0.0;
  std::vector<double> x;  ///< One value per model variable.

  bool ok() const {
    return status == SolveStatus::kOptimal || status == SolveStatus::kNodeLimit;
  }
};

}  // namespace dsp::lp
