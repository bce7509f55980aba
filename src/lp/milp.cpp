#include "lp/milp.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <utility>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace dsp::lp {
namespace {

/// Index of the first integral variable, in model order, whose value is
/// fractional, or -1 if all are integral. Models that declare their
/// decisive variables first (the §III model: placement x before
/// ordering y) get them fixed first.
int first_fractional(const Model& model, const std::vector<double>& x) {
  for (std::size_t i = 0; i < model.var_count(); ++i) {
    if (!model.var(static_cast<VarId>(i)).is_integer) continue;
    const double frac = x[i] - std::floor(x[i]);
    if (std::min(frac, 1.0 - frac) > kIntTol) return static_cast<int>(i);
  }
  return -1;
}

/// One open branch-and-bound node: a single bound delta over the parent
/// chain (O(1) state per node) plus the parent relaxation's basis, shared
/// by both children for warm-starting.
struct OpenNode {
  double bound;       // parent relaxation objective, minimize direction
  std::uint64_t seq;  // creation order: total tie-break, deterministic
  int var;            // branched variable (-1 at the root)
  double lo, hi;      // effective bounds of `var` at this node
  std::shared_ptr<const OpenNode> parent;
  std::shared_ptr<const Basis> warm;  // parent's optimal basis (nullable)
};

using NodePtr = std::shared_ptr<const OpenNode>;

/// Effective bounds of `var` along the node chain: the delta nearest the
/// leaf wins (each delta is already intersected with its ancestors').
std::pair<double, double> chain_bounds(const OpenNode* node, int var,
                                       const Model& model) {
  for (const OpenNode* p = node; p != nullptr; p = p->parent.get())
    if (p->var == var) return {p->lo, p->hi};
  const Variable& v = model.var(static_cast<VarId>(var));
  return {v.lower, v.upper};
}

/// Applies the chain's accumulated bound deltas to a fresh-bounds solver.
void apply_chain(BoundedSimplex& ctx, const OpenNode* node,
                 std::vector<int>& seen) {
  ctx.reset_bounds();
  seen.clear();
  for (const OpenNode* p = node; p != nullptr; p = p->parent.get()) {
    if (p->var < 0) continue;
    if (std::find(seen.begin(), seen.end(), p->var) != seen.end()) continue;
    seen.push_back(p->var);
    ctx.set_var_bounds(static_cast<VarId>(p->var), p->lo, p->hi);
  }
}

}  // namespace

Solution MilpSolver::solve(const Model& model) const {
  DSP_PROFILE("lp.milp_solve_s");
  last_nodes_ = 0;
  last_warm_hits_ = 0;
  const double dir_sign =
      model.direction() == Direction::kMinimize ? 1.0 : -1.0;

  // One simplex for the whole search. Best-bound order usually pops a
  // child right after its parent, so the first child reuses the live
  // tableau and its sibling restores the parent's snapshot.
  BoundedSimplex bs(model);
  auto count_node = [&] {
    ++last_nodes_;
    DSP_COUNT("lp.milp_nodes");
    if (bs.stats().warm_used) ++last_warm_hits_;
  };

  // Min-heap on (bound, seq): best-bound search with a deterministic
  // total order.
  auto cmp = [](const NodePtr& a, const NodePtr& b) {
    if (a->bound != b->bound) return a->bound > b->bound;
    return a->seq > b->seq;
  };
  std::priority_queue<NodePtr, std::vector<NodePtr>, decltype(cmp)> open(cmp);
  std::uint64_t next_seq = 0;

  // Opens both children of `node`, whose relaxation `rel` (objective
  // `rel_obj`, optimal basis `basis`) is fractional in `frac_var`.
  auto branch = [&](const NodePtr& node, const Solution& rel, double rel_obj,
                    int frac_var, Basis& basis) {
    const double val = rel.x[static_cast<std::size_t>(frac_var)];
    const auto [blo, bhi] = chain_bounds(node.get(), frac_var, model);
    auto warm = opts_.warm_start
                    ? std::make_shared<const Basis>(std::move(basis))
                    : nullptr;
    open.push(std::make_shared<OpenNode>(
        OpenNode{rel_obj, next_seq++, frac_var, blo,
                 std::min(bhi, std::floor(val)), node, warm}));
    open.push(std::make_shared<OpenNode>(
        OpenNode{rel_obj, next_seq++, frac_var,
                 std::max(blo, std::ceil(val)), bhi, node, warm}));
  };

  Basis basis;
  {
    const Solution rel = bs.solve(nullptr, &basis);
    count_node();
    if (rel.status == SolveStatus::kInfeasible)
      return {SolveStatus::kInfeasible, 0.0, {}};
    if (rel.status == SolveStatus::kUnbounded)
      return {SolveStatus::kUnbounded, 0.0, {}};
    if (rel.status != SolveStatus::kOptimal) return {rel.status, 0.0, {}};
    const int frac_var = first_fractional(model, rel.x);
    if (frac_var < 0) {
      Solution sol = rel;
      sol.status = SolveStatus::kOptimal;
      return sol;
    }
    const double root_obj = dir_sign * rel.objective;
    const auto root = std::make_shared<const OpenNode>(
        OpenNode{root_obj, next_seq++, -1, 0.0, 0.0, nullptr, nullptr});
    branch(root, rel, root_obj, frac_var, basis);
  }

  Solution incumbent;
  incumbent.status = SolveStatus::kNoSolution;
  double incumbent_obj = kInf;  // in minimize direction
  std::vector<int> seen;
  while (!open.empty() && last_nodes_ < kMilpNodeCap) {
    if (open.top()->bound >= incumbent_obj - kGapTol)
      break;  // best-bound pruning: the whole heap is dominated
    const NodePtr node = open.top();
    open.pop();
    apply_chain(bs, node.get(), seen);
    const Solution rel = bs.solve(node->warm.get(), &basis);
    count_node();
    if (rel.status != SolveStatus::kOptimal) continue;  // prune
    const double rel_obj = dir_sign * rel.objective;
    if (rel_obj >= incumbent_obj - kGapTol) continue;

    const int frac_var = first_fractional(model, rel.x);
    if (frac_var < 0) {
      // Integral: new incumbent.
      incumbent = rel;
      incumbent.status = SolveStatus::kOptimal;
      incumbent_obj = rel_obj;
      continue;
    }
    branch(node, rel, rel_obj, frac_var, basis);
  }

  if (incumbent.status == SolveStatus::kOptimal) {
    // Exhausted the tree => proven optimal; otherwise best-so-far.
    const bool proven = open.empty() ||
                        open.top()->bound >= incumbent_obj - kGapTol;
    incumbent.status = proven ? SolveStatus::kOptimal : SolveStatus::kNodeLimit;
    return incumbent;
  }
  // No incumbent: an exhausted tree proves there is no integral feasible
  // point; otherwise the node cap stopped us before finding one.
  return {open.empty() ? SolveStatus::kInfeasible : SolveStatus::kNoSolution,
          0.0,
          {}};
}

}  // namespace dsp::lp
