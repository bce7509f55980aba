#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/log.h"

namespace dsp::lp {
namespace {

/// Degenerate iterations tolerated before switching to Bland's rule.
constexpr int kBlandTrigger = 24;
/// Candidate-list capacity for partial pricing.
constexpr std::size_t kCandidateCap = 16;
/// A basic value within this of its bound counts as feasible.
constexpr double kPrimalFeasTol = 1e-7;
/// A reduced cost within this of the right sign counts as dual feasible.
constexpr double kDualFeasTol = 1e-7;
/// Smallest acceptable pivot element during warm refactorization.
constexpr double kPivotTol = 1e-8;

}  // namespace

// ---------------------------------------------------------------------
// Construction: bounds-independent matrix, built once per model.
// ---------------------------------------------------------------------

BoundedSimplex::BoundedSimplex(const Model& model)
    : model_(&model),
      nv_(model.var_count()),
      m_(model.constraint_count()),
      n_(nv_ + m_),
      width_(n_ + m_),
      a0_(m_ * width_, 0.0),
      b0_(m_, 0.0),
      obj_(width_, 0.0),
      lo_(width_, 0.0),
      hi_(width_, 0.0),
      beta_(m_, 0.0),
      z_(width_, 0.0),
      status_(width_, VarStatus::kAtLower),
      basic_(m_, -1) {
  const double sign = model.direction() == Direction::kMinimize ? 1.0 : -1.0;
  for (std::size_t j = 0; j < nv_; ++j) {
    const Variable& v = model.var(static_cast<VarId>(j));
    obj_[j] = sign * v.objective;
    lo_[j] = v.lower;
    hi_[j] = v.upper;
  }
  for (std::size_t i = 0; i < m_; ++i) {
    const Constraint& c = model.constraints()[i];
    double* arow = a0_.data() + i * width_;
    for (const auto& [var, coeff] : c.expr.terms())
      arow[static_cast<std::size_t>(var)] += coeff;
    const std::size_t s = nv_ + i;
    arow[s] = 1.0;
    b0_[i] = c.rhs;
    // Slack bounds encode the sense: Ax + s = b with s >= 0 (Le),
    // s <= 0 (Ge) or s == 0 (Eq); bound rows never exist.
    switch (c.sense) {
      case Sense::kLe: lo_[s] = 0.0; hi_[s] = kInf; break;
      case Sense::kGe: lo_[s] = -kInf; hi_[s] = 0.0; break;
      case Sense::kEq: lo_[s] = 0.0; hi_[s] = 0.0; break;
    }
  }
  // Artificial region: fixed at zero until a cold start opens some up.
  pivot_cols_.reserve(width_);
}

void BoundedSimplex::set_var_bounds(VarId v, double lower, double upper) {
  const auto j = static_cast<std::size_t>(v);
  assert(j < nv_);
  lo_[j] = lower;
  hi_[j] = upper;
}

void BoundedSimplex::reset_bounds() {
  for (std::size_t j = 0; j < nv_; ++j) {
    const Variable& v = model_->var(static_cast<VarId>(j));
    lo_[j] = v.lower;
    hi_[j] = v.upper;
  }
}

// ---------------------------------------------------------------------
// Small helpers over the working state.
// ---------------------------------------------------------------------

double BoundedSimplex::value_of(std::size_t j) const {
  switch (status_[j]) {
    case VarStatus::kAtLower: return lo_[j];
    case VarStatus::kAtUpper: return hi_[j];
    case VarStatus::kFree: return 0.0;
    case VarStatus::kBasic: break;
  }
  assert(false && "value_of expects a nonbasic column");
  return 0.0;
}

bool BoundedSimplex::fixed(std::size_t j) const {
  return std::isfinite(lo_[j]) && std::isfinite(hi_[j]) &&
         hi_[j] - lo_[j] <= kTol;
}

/// beta_i -= delta * T[i][enter] for every row (except `skip_row`): the
/// effect of moving nonbasic `enter` by `delta` on the basic values.
void BoundedSimplex::apply_step(std::size_t enter, double delta,
                                std::size_t skip_row) {
  if (delta == 0.0) return;
  for (std::size_t i = 0; i < m_; ++i) {
    if (i == skip_row) continue;
    const double aij = row(i)[enter];
    if (aij != 0.0) beta_[i] -= delta * aij;
  }
}

/// Gauss-Jordan pivot on (prow, pcol): pivot row scaled, pivot column
/// eliminated everywhere else, reduced costs updated in place. Only the
/// pivot row's nonzero columns are touched in the other rows.
void BoundedSimplex::pivot(std::size_t prow, std::size_t pcol) {
  double* pr = row(prow);
  const double inv = 1.0 / pr[pcol];
  const std::size_t ncols = n_ + n_art_;

  pivot_cols_.clear();
  for (std::size_t j = 0; j < ncols; ++j) {
    if (pr[j] == 0.0) continue;
    pr[j] *= inv;
    pivot_cols_.push_back(static_cast<std::uint32_t>(j));
  }
  pr[pcol] = 1.0;  // clean up rounding

  for (std::size_t i = 0; i < m_; ++i) {
    if (i == prow) continue;
    double* ar = row(i);
    const double factor = ar[pcol];
    if (factor == 0.0) continue;
    for (const std::uint32_t j : pivot_cols_) ar[j] -= factor * pr[j];
    ar[pcol] = 0.0;
  }
  const double zfactor = z_[pcol];
  if (zfactor != 0.0) {
    for (const std::uint32_t j : pivot_cols_) z_[j] -= zfactor * pr[j];
    z_[pcol] = 0.0;
  }
}

void BoundedSimplex::compute_reduced_costs(const std::vector<double>& cost) {
  const std::size_t ncols = n_ + n_art_;
  std::copy(cost.begin(), cost.begin() + static_cast<std::ptrdiff_t>(ncols),
            z_.begin());
  for (std::size_t i = 0; i < m_; ++i) {
    const double y = cost[static_cast<std::size_t>(basic_[i])];
    if (y == 0.0) continue;
    const double* arow = row(i);
    for (std::size_t j = 0; j < ncols; ++j) z_[j] -= y * arow[j];
  }
}

/// beta = rhs~ - sum over nonbasic columns at a nonzero value.
void BoundedSimplex::compute_beta(const std::vector<double>& rhs) {
  beta_ = rhs;
  const std::size_t ncols = n_ + n_art_;
  for (std::size_t j = 0; j < ncols; ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    const double v = value_of(j);
    if (v == 0.0) continue;
    for (std::size_t i = 0; i < m_; ++i) {
      const double aij = row(i)[j];
      if (aij != 0.0) beta_[i] -= aij * v;
    }
  }
}

bool BoundedSimplex::primal_feasible() const {
  for (std::size_t i = 0; i < m_; ++i) {
    const auto b = static_cast<std::size_t>(basic_[i]);
    if (beta_[i] < lo_[b] - kPrimalFeasTol ||
        beta_[i] > hi_[b] + kPrimalFeasTol)
      return false;
  }
  return true;
}

bool BoundedSimplex::dual_feasible() const {
  const std::size_t ncols = n_ + n_art_;
  for (std::size_t j = 0; j < ncols; ++j) {
    if (status_[j] == VarStatus::kBasic || fixed(j)) continue;
    switch (status_[j]) {
      case VarStatus::kAtLower:
        if (z_[j] < -kDualFeasTol) return false;
        break;
      case VarStatus::kAtUpper:
        if (z_[j] > kDualFeasTol) return false;
        break;
      case VarStatus::kFree:
        if (std::abs(z_[j]) > kDualFeasTol) return false;
        break;
      case VarStatus::kBasic: break;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Primal simplex: pricing.
// ---------------------------------------------------------------------

namespace {

/// Eligibility of nonbasic column j to enter under reduced cost z.
inline bool primal_eligible(VarStatus st, double zj, double tol) {
  switch (st) {
    case VarStatus::kAtLower: return zj < -tol;
    case VarStatus::kAtUpper: return zj > tol;
    case VarStatus::kFree: return std::abs(zj) > tol;
    case VarStatus::kBasic: return false;
  }
  return false;
}

}  // namespace

/// Bland: entering = lowest-index eligible column (cannot cycle).
int BoundedSimplex::price_primal(bool /*bland*/) const {
  const std::size_t ncols = n_ + n_art_;
  for (std::size_t j = 0; j < ncols; ++j) {
    if (status_[j] == VarStatus::kBasic || fixed(j)) continue;
    if (primal_eligible(status_[j], z_[j], kTol))
      return static_cast<int>(j);
  }
  return -1;
}

/// Partial pricing: drain the candidate list most-attractive-first,
/// re-checking stored columns against current reduced costs; a full
/// refresh scan runs only when the list is dry.
int BoundedSimplex::price_primal_candidates() {
  for (int attempt = 0; attempt < 2; ++attempt) {
    int best = -1;
    double best_score = kTol;
    std::size_t keep = 0;
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      const std::size_t j = candidates_[c];
      if (status_[j] == VarStatus::kBasic || fixed(j) ||
          !primal_eligible(status_[j], z_[j], kTol))
        continue;  // stale: drop
      candidates_[keep++] = static_cast<std::uint32_t>(j);
      // Largest |z| wins; ties break on the lower column index, keeping
      // entering choices deterministic.
      if (std::abs(z_[j]) > best_score) {
        best_score = std::abs(z_[j]);
        best = static_cast<int>(j);
      }
    }
    candidates_.resize(keep);
    if (best >= 0) return best;
    if (attempt == 0) refresh_candidates();
  }
  return -1;
}

/// Full scan collecting the kCandidateCap most attractive columns.
void BoundedSimplex::refresh_candidates() {
  candidates_.clear();
  const std::size_t ncols = n_ + n_art_;
  for (std::size_t j = 0; j < ncols; ++j) {
    if (status_[j] == VarStatus::kBasic || fixed(j) ||
        !primal_eligible(status_[j], z_[j], kTol))
      continue;
    if (candidates_.size() < kCandidateCap) {
      candidates_.push_back(static_cast<std::uint32_t>(j));
      continue;
    }
    std::size_t worst = 0;
    for (std::size_t c = 1; c < candidates_.size(); ++c)
      if (std::abs(z_[candidates_[c]]) < std::abs(z_[candidates_[worst]]))
        worst = c;
    if (std::abs(z_[j]) > std::abs(z_[candidates_[worst]]))
      candidates_[worst] = static_cast<std::uint32_t>(j);
  }
}

// ---------------------------------------------------------------------
// Primal simplex iteration (bounded ratio test with bound flips).
// ---------------------------------------------------------------------

BoundedSimplex::LoopStatus BoundedSimplex::primal_loop(int& budget) {
  const double tol = kTol;
  int degenerate_streak = 0;
  candidates_.clear();

  while (budget-- > 0) {
    const bool bland = degenerate_streak >= kBlandTrigger;
    const int enter = bland ? price_primal(true) : price_primal_candidates();
    if (enter < 0) return LoopStatus::kOptimal;
    const auto e = static_cast<std::size_t>(enter);

    // Direction: up from lower, down from upper; free columns follow the
    // sign of their reduced cost.
    const double d =
        status_[e] == VarStatus::kAtUpper ||
                (status_[e] == VarStatus::kFree && z_[e] > tol)
            ? -1.0
            : 1.0;

    // Bounded ratio test: the entering column moves until a basic
    // variable hits a bound (pivot) or the entering column hits its own
    // opposite bound (flip, no pivot).
    const bool has_range = status_[e] != VarStatus::kFree &&
                           std::isfinite(lo_[e]) && std::isfinite(hi_[e]);
    double best_t = has_range ? hi_[e] - lo_[e] : kInf;
    int leave = -1;  // -1 = bound flip
    for (std::size_t i = 0; i < m_; ++i) {
      const double rate = d * row(i)[e];
      const auto b = static_cast<std::size_t>(basic_[i]);
      double t;
      if (rate > tol) {
        if (!std::isfinite(lo_[b])) continue;
        t = (beta_[i] - lo_[b]) / rate;
      } else if (rate < -tol) {
        if (!std::isfinite(hi_[b])) continue;
        t = (beta_[i] - hi_[b]) / rate;
      } else {
        continue;
      }
      if (t < 0.0) t = 0.0;  // roundoff already past the bound
      // Strictly better rows win; ties keep the smallest basic index
      // (Bland tie-break), and a tie with the entering column's own
      // range keeps the cheaper bound flip.
      if (t < best_t - tol ||
          (leave >= 0 && std::abs(t - best_t) <= tol &&
           basic_[i] < basic_[static_cast<std::size_t>(leave)])) {
        best_t = t;
        leave = static_cast<int>(i);
      }
    }
    if (!std::isfinite(best_t)) return LoopStatus::kUnbounded;

    ++stats_.iterations;
    if (bland) ++stats_.bland_pivots;
    degenerate_streak = best_t <= tol ? degenerate_streak + 1 : 0;

    if (leave < 0) {
      // Bound flip: the entering column crosses to its other bound.
      apply_step(e, d * best_t, m_);
      status_[e] = status_[e] == VarStatus::kAtLower ? VarStatus::kAtUpper
                                                     : VarStatus::kAtLower;
      continue;
    }
    const auto r = static_cast<std::size_t>(leave);
    const auto lv = static_cast<std::size_t>(basic_[r]);
    const double leave_rate = d * row(r)[e];
    const double newval = value_of(e) + d * best_t;
    apply_step(e, d * best_t, r);
    status_[lv] = leave_rate > 0.0 ? VarStatus::kAtLower : VarStatus::kAtUpper;
    status_[e] = VarStatus::kBasic;
    pivot(r, e);
    basic_[r] = static_cast<std::int32_t>(e);
    beta_[r] = newval;
  }
  return LoopStatus::kIterationLimit;
}

// ---------------------------------------------------------------------
// Dual simplex iteration: repairs primal feasibility after bound changes
// while preserving dual feasibility — the warm-start workhorse.
// ---------------------------------------------------------------------

BoundedSimplex::LoopStatus BoundedSimplex::dual_loop(int& budget) {
  const double tol = kTol;
  const std::size_t ncols = n_ + n_art_;
  int degenerate_streak = 0;

  while (budget-- > 0) {
    // Leaving row: most violated basic; under Bland, the violated basic
    // with the lowest variable index (anti-cycling).
    const bool bland = degenerate_streak >= kBlandTrigger;
    int r = -1;
    double best_viol = kPrimalFeasTol;
    for (std::size_t i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basic_[i]);
      double viol = 0.0;
      if (beta_[i] < lo_[b] - kPrimalFeasTol) viol = lo_[b] - beta_[i];
      else if (beta_[i] > hi_[b] + kPrimalFeasTol) viol = beta_[i] - hi_[b];
      if (viol <= kPrimalFeasTol) continue;
      if (bland) {
        if (r < 0 || basic_[i] < basic_[static_cast<std::size_t>(r)])
          r = static_cast<int>(i);
      } else if (viol > best_viol ||
                 (r < 0 && viol > kPrimalFeasTol)) {
        best_viol = viol;
        r = static_cast<int>(i);
      }
    }
    if (r < 0) return LoopStatus::kOptimal;  // primal feasible
    const auto ri = static_cast<std::size_t>(r);
    const auto lv = static_cast<std::size_t>(basic_[ri]);
    const bool below = beta_[ri] < lo_[lv];

    // Dual ratio test: the entering column must move the leaving basic
    // toward its violated bound; the minimum |z|/|a| ratio preserves
    // dual feasibility, ties break on the lowest column index.
    const double* arow = row(ri);
    int enter = -1;
    double best_ratio = kInf;
    for (std::size_t j = 0; j < ncols; ++j) {
      if (status_[j] == VarStatus::kBasic || fixed(j)) continue;
      const double a = arow[j];
      if (std::abs(a) <= tol) continue;
      bool ok;
      switch (status_[j]) {
        case VarStatus::kAtLower: ok = below ? a < 0.0 : a > 0.0; break;
        case VarStatus::kAtUpper: ok = below ? a > 0.0 : a < 0.0; break;
        default: ok = true; break;  // free: either direction
      }
      if (!ok) continue;
      const double ratio = std::abs(z_[j]) / std::abs(a);
      if (ratio < best_ratio - tol) {
        best_ratio = ratio;
        enter = static_cast<int>(j);
      }
    }
    if (enter < 0) return LoopStatus::kInfeasible;
    const auto e = static_cast<std::size_t>(enter);

    ++stats_.iterations;
    ++stats_.dual_iterations;
    if (bland) ++stats_.bland_pivots;
    degenerate_streak =
        std::abs(z_[e]) <= tol ? degenerate_streak + 1 : 0;

    const double target = below ? lo_[lv] : hi_[lv];
    const double delta = (beta_[ri] - target) / arow[e];
    const double newval = value_of(e) + delta;
    apply_step(e, delta, ri);
    status_[lv] = below ? VarStatus::kAtLower : VarStatus::kAtUpper;
    status_[e] = VarStatus::kBasic;
    pivot(ri, e);
    basic_[ri] = static_cast<std::int32_t>(e);
    beta_[ri] = newval;
  }
  return LoopStatus::kIterationLimit;
}

// ---------------------------------------------------------------------
// Warm start: refactorize an imported basis, absorb bound changes.
// ---------------------------------------------------------------------

bool BoundedSimplex::try_warm_start(const Basis& warm) {
  if (warm.basic.size() != m_ || warm.status.size() != n_) return false;
  n_art_ = 0;

  // Import and validate the basis assignment.
  std::vector<char> is_basic(n_, 0);
  for (std::size_t i = 0; i < m_; ++i) {
    const std::int32_t b = warm.basic[i];
    basic_[i] = b;
    if (b < 0) continue;  // dead row: re-seeded with an artificial below
    const auto bj = static_cast<std::size_t>(b);
    if (bj >= n_ || is_basic[bj] || warm.status[bj] != VarStatus::kBasic)
      return false;
    is_basic[bj] = 1;
  }
  for (std::size_t j = 0; j < n_; ++j) {
    VarStatus st = warm.status[j];
    if (st == VarStatus::kBasic) {
      if (!is_basic[j]) return false;
    } else {
      // Bounds may have changed since the basis was exported (that is the
      // point of warm-starting a B&B child): snap the status to a bound
      // that exists under the current bounds.
      if (st == VarStatus::kAtLower && !std::isfinite(lo_[j]))
        st = std::isfinite(hi_[j]) ? VarStatus::kAtUpper : VarStatus::kFree;
      else if (st == VarStatus::kAtUpper && !std::isfinite(hi_[j]))
        st = std::isfinite(lo_[j]) ? VarStatus::kAtLower : VarStatus::kFree;
      else if (st == VarStatus::kFree && std::isfinite(lo_[j]))
        st = VarStatus::kAtLower;
      else if (st == VarStatus::kFree && std::isfinite(hi_[j]))
        st = VarStatus::kAtUpper;
    }
    status_[j] = st;
  }
  // Dead rows keep a fixed-at-zero artificial basic so the basis square.
  for (std::size_t i = 0; i < m_; ++i) {
    if (basic_[i] >= 0) continue;
    const std::size_t q = n_ + n_art_++;
    lo_[q] = 0.0;
    hi_[q] = 0.0;
    status_[q] = VarStatus::kBasic;
    basic_[i] = static_cast<std::int32_t>(q);
  }

  // Fresh tableau + rhs; artificial columns for dead rows.
  std::memcpy(tab_.data(), a0_.data(), m_ * width_ * sizeof(double));
  setup_rhs_ = b0_;
  std::vector<double>& rhs = setup_rhs_;
  for (std::size_t i = 0; i < m_; ++i)
    if (static_cast<std::size_t>(basic_[i]) >= n_)
      row(i)[static_cast<std::size_t>(basic_[i])] = 1.0;

  // Refactorize: make every basic column an identity column. Rows basic
  // in their own slack (or their dead-row artificial) are identity by
  // construction and stay so — pivot rows can never pick up a
  // coefficient in those columns — so they keep their pairing; only
  // structural (or foreign-slack) basic columns need elimination.
  //
  // The exported (row, column) pairing is not always eliminable in row
  // order (fixed-position pivots can be zero even for a nonsingular
  // basis), so each column claims the free row with the largest pivot
  // — partial pivoting — and the pairing is rebuilt as rows are
  // claimed. beta_ is recomputed below, so re-pairing is free.
  std::vector<std::size_t> elim_cols;
  std::vector<char> row_free(m_, 0);
  for (std::size_t i = 0; i < m_; ++i) {
    const auto j = static_cast<std::size_t>(basic_[i]);
    if (j == nv_ + i || j >= n_) continue;
    elim_cols.push_back(j);
    row_free[i] = 1;
  }
  for (const std::size_t j : elim_cols) {
    std::size_t r = m_;
    double best = kPivotTol;
    for (std::size_t i = 0; i < m_; ++i) {
      if (row_free[i] == 0) continue;
      const double a = std::abs(row(i)[j]);
      if (a > best) {
        best = a;
        r = i;
      }
    }
    if (r == m_) return false;  // numerically singular basis
    row_free[r] = 0;
    basic_[r] = static_cast<std::int32_t>(j);
    double* pr = row(r);
    const double inv = 1.0 / pr[j];
    const std::size_t ncols = n_ + n_art_;
    pivot_cols_.clear();
    for (std::size_t k = 0; k < ncols; ++k) {
      if (pr[k] == 0.0) continue;
      pr[k] *= inv;
      pivot_cols_.push_back(static_cast<std::uint32_t>(k));
    }
    pr[j] = 1.0;
    rhs[r] *= inv;
    for (std::size_t i2 = 0; i2 < m_; ++i2) {
      if (i2 == r) continue;
      double* ar = row(i2);
      const double factor = ar[j];
      if (factor == 0.0) continue;
      for (const std::uint32_t k : pivot_cols_) ar[k] -= factor * pr[k];
      ar[j] = 0.0;
      rhs[i2] -= factor * rhs[r];
    }
  }

  // Caller computes beta and reduced costs from setup_rhs_.
  return true;
}

// ---------------------------------------------------------------------
// Fast warm paths: reuse this context's own factorized tableau.
// ---------------------------------------------------------------------

bool BoundedSimplex::matches_own_basis(const Basis& warm) const {
  if (!own_valid_ || warm.basic.size() != m_ || warm.status.size() != n_)
    return false;
  return warm.basic == own_basis_.basic && warm.status == own_basis_.status;
}

bool BoundedSimplex::matches_prev_basis(const Basis& warm) const {
  if (!prev_valid_ || warm.basic.size() != m_ || warm.status.size() != n_)
    return false;
  return warm.basic == prev_basis_.basic && warm.status == prev_basis_.status;
}

/// Snapshots the current factorized (pre-repair) tableau keyed by the
/// warm basis that produced it. One memcpy; restored by siblings seeded
/// with the same basis.
void BoundedSimplex::save_prev_state(const Basis& warm) {
  prev_basis_ = warm;
  prev_rhs_ = setup_rhs_;
  prev_tab_.assign(tab_.begin(), tab_.end());
  prev_status_.assign(status_.begin(), status_.end());
  prev_basic_.assign(basic_.begin(), basic_.end());
  prev_nart_ = n_art_;
  prev_valid_ = true;
}

/// Restores the snapshot; the caller recomputes beta and reduced costs
/// (bounds usually changed). The snapshot stays valid for further
/// restores.
void BoundedSimplex::restore_prev_state() {
  std::memcpy(tab_.data(), prev_tab_.data(), tab_.size() * sizeof(double));
  status_.assign(prev_status_.begin(), prev_status_.end());
  basic_.assign(prev_basic_.begin(), prev_basic_.end());
  n_art_ = prev_nart_;
  setup_rhs_ = prev_rhs_;
}

/// Re-snaps every nonbasic status to a bound that exists under the
/// current bounds (bounds may have changed since the status was set).
void BoundedSimplex::snap_nonbasic_statuses() {
  for (std::size_t j = 0; j < n_; ++j) {
    VarStatus st = status_[j];
    if (st == VarStatus::kBasic) continue;
    if (st == VarStatus::kAtLower && !std::isfinite(lo_[j]))
      st = std::isfinite(hi_[j]) ? VarStatus::kAtUpper : VarStatus::kFree;
    else if (st == VarStatus::kAtUpper && !std::isfinite(hi_[j]))
      st = std::isfinite(lo_[j]) ? VarStatus::kAtLower : VarStatus::kFree;
    else if (st == VarStatus::kFree && std::isfinite(lo_[j]))
      st = VarStatus::kAtLower;
    else if (st == VarStatus::kFree && std::isfinite(hi_[j]))
      st = VarStatus::kAtUpper;
    status_[j] = st;
  }
}

/// Records the exported basis and the factorized rhs of the current
/// (optimal) tableau so the next solve seeded with this exact basis can
/// skip refactorization. The rhs is recovered from beta:
///   rhs_i = beta_i + sum over nonbasic j of T[i][j] * value(j).
void BoundedSimplex::save_own_state() {
  own_basis_.basic.assign(m_, -1);
  for (std::size_t i = 0; i < m_; ++i)
    if (static_cast<std::size_t>(basic_[i]) < n_)
      own_basis_.basic[i] = basic_[i];
  own_basis_.status.assign(status_.begin(),
                           status_.begin() + static_cast<std::ptrdiff_t>(n_));
  pivot_cols_.clear();  // scratch: nonbasic columns with nonzero value
  for (std::size_t j = 0; j < n_ + n_art_; ++j)
    if (status_[j] != VarStatus::kBasic && value_of(j) != 0.0)
      pivot_cols_.push_back(static_cast<std::uint32_t>(j));
  own_rhs_.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    double r = beta_[i];
    const double* tr = row(i);
    for (const std::uint32_t j : pivot_cols_) r += tr[j] * value_of(j);
    own_rhs_[i] = r;
  }
  own_valid_ = true;
}

// ---------------------------------------------------------------------
// Cold start: slack basis + Phase-I artificials for violated rows.
// ---------------------------------------------------------------------

void BoundedSimplex::cold_start() {
  n_art_ = 0;
  for (std::size_t j = 0; j < nv_; ++j) {
    if (std::isfinite(lo_[j])) status_[j] = VarStatus::kAtLower;
    else if (std::isfinite(hi_[j])) status_[j] = VarStatus::kAtUpper;
    else status_[j] = VarStatus::kFree;
  }
  for (std::size_t i = 0; i < m_; ++i) {
    status_[nv_ + i] = VarStatus::kBasic;
    basic_[i] = static_cast<std::int32_t>(nv_ + i);
  }
  // A row-less LP has an empty tableau whose data() may be null, and
  // memcpy from or to null is undefined even for zero bytes.
  if (m_ > 0)
    std::memcpy(tab_.data(), a0_.data(), m_ * width_ * sizeof(double));
  compute_beta(b0_);

  // Rows whose slack value lands outside the slack bounds get a basic
  // Phase-I artificial carrying the residual; the slack snaps to its
  // nearest bound. Rows already within bounds need nothing.
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t s = nv_ + i;
    if (beta_[i] >= lo_[s] - kPrimalFeasTol &&
        beta_[i] <= hi_[s] + kPrimalFeasTol)
      continue;
    const bool snap_low = beta_[i] < lo_[s];
    const double sval = snap_low ? lo_[s] : hi_[s];
    const double resid = beta_[i] - sval;
    const std::size_t q = n_ + n_art_++;
    if (resid < 0.0) {
      // Negate the row so the basic artificial column is an identity
      // column (+1) — the tableau invariant every update relies on.
      double* arow = row(i);
      for (std::size_t j = 0; j < n_; ++j) arow[j] = -arow[j];
    }
    row(i)[q] = 1.0;
    lo_[q] = 0.0;
    hi_[q] = kInf;  // open during Phase I; frozen to zero afterwards
    status_[s] = snap_low ? VarStatus::kAtLower : VarStatus::kAtUpper;
    status_[q] = VarStatus::kBasic;
    basic_[i] = static_cast<std::int32_t>(q);
    beta_[i] = std::abs(resid);
  }
}

/// Pivots every basic Phase-I artificial out of the basis where a usable
/// structural/slack column exists; rows with none are redundant and keep
/// their artificial (fixed at zero) as a placeholder.
void BoundedSimplex::expel_artificials() {
  for (std::size_t i = 0; i < m_; ++i) {
    const auto b = static_cast<std::size_t>(basic_[i]);
    if (b < n_) continue;
    int enter = -1;
    const double* arow = row(i);
    for (std::size_t j = 0; j < n_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      if (std::abs(arow[j]) > kPrimalFeasTol) {
        enter = static_cast<int>(j);
        break;
      }
    }
    if (enter < 0) continue;  // redundant row
    const auto e = static_cast<std::size_t>(enter);
    const double delta = beta_[i] / arow[e];  // artificial exits at zero
    const double newval = value_of(e) + delta;
    apply_step(e, delta, i);
    status_[b] = VarStatus::kAtLower;
    status_[e] = VarStatus::kBasic;
    pivot(i, e);
    basic_[i] = static_cast<std::int32_t>(e);
    beta_[i] = newval;
  }
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

Solution BoundedSimplex::extract(const Model& model, Basis* out) {
  Solution sol;
  sol.status = SolveStatus::kOptimal;
  sol.x.resize(nv_);
  for (std::size_t j = 0; j < nv_; ++j)
    sol.x[j] = status_[j] == VarStatus::kBasic ? 0.0 : value_of(j);
  for (std::size_t i = 0; i < m_; ++i) {
    const auto b = static_cast<std::size_t>(basic_[i]);
    if (b < nv_) sol.x[b] = beta_[i];
  }
  // Clamp tiny bound violations from pivoting round-off.
  for (std::size_t j = 0; j < nv_; ++j)
    sol.x[j] = std::clamp(sol.x[j], lo_[j], hi_[j]);
  sol.objective = model.objective_value(sol.x);
  save_own_state();
  if (out != nullptr) *out = own_basis_;
  return sol;
}

Solution BoundedSimplex::solve(const Basis* warm, Basis* out) {
  DSP_PROFILE("lp.simplex_solve_s");
  stats_ = {};
  if (tab_.empty()) tab_.resize(m_ * width_, 0.0);

  for (std::size_t j = 0; j < n_; ++j)
    if (lo_[j] > hi_[j] + kTol) return {SolveStatus::kInfeasible, 0.0, {}};

  int budget = kMaxIterations;

  // Decide the fast path before invalidating: any solve mutates the
  // tableau, so the own-state snapshot is good for exactly one reuse.
  const bool own_fast = warm != nullptr && matches_own_basis(*warm);
  own_valid_ = false;

  // ---- Warm path: repair the basis with the dual simplex. Three entry
  // tiers, cheapest first: (1) the warm basis is the one this context
  // just exported — its tableau is already factorized, reuse in place;
  // (2) the warm basis matches the pre-repair snapshot of the previous
  // warm solve — sibling branch-and-bound nodes share their parent's
  // basis — restore it with a memcpy; (3) import the basis and
  // refactorize from scratch. ----
  if (warm != nullptr && !warm->empty()) {
    bool ready = true;
    if (own_fast) {
      DSP_COUNT("lp.warm_start_fast");
      setup_rhs_ = own_rhs_;
    } else if (matches_prev_basis(*warm)) {
      DSP_COUNT("lp.warm_start_fast");
      restore_prev_state();
    } else {
      ready = try_warm_start(*warm);  // fills setup_rhs_
    }
    if (ready) {
      snap_nonbasic_statuses();
      compute_beta(setup_rhs_);
      cost_.assign(obj_.begin(), obj_.end());
      compute_reduced_costs(cost_);
      save_prev_state(*warm);
      LoopStatus st = LoopStatus::kOptimal;
      bool usable = true;
      if (dual_feasible()) {
        st = dual_loop(budget);
        if (st == LoopStatus::kOptimal) st = primal_loop(budget);
      } else if (primal_feasible()) {
        st = primal_loop(budget);
      } else {
        usable = false;  // doubly infeasible basis: cold restart
      }
      if (usable) {
        stats_.warm_used = true;
        DSP_COUNT("lp.warm_start_hit");
        switch (st) {
          case LoopStatus::kOptimal: return extract(*model_, out);
          case LoopStatus::kInfeasible:
            return {SolveStatus::kInfeasible, 0.0, {}};
          case LoopStatus::kUnbounded:
            return {SolveStatus::kUnbounded, 0.0, {}};
          case LoopStatus::kIterationLimit:
            return {SolveStatus::kIterationLimit, 0.0, {}};
        }
      }
    }
    if (!stats_.warm_used) DSP_COUNT("lp.warm_start_miss");
  }

  // ---- Cold path: slack basis, Phase I on artificials, Phase II. ----
  cold_start();
  if (n_art_ > 0) {
    cost_.assign(width_, 0.0);
    for (std::size_t q = n_; q < n_ + n_art_; ++q) cost_[q] = 1.0;
    compute_reduced_costs(cost_);
    const LoopStatus st = primal_loop(budget);
    if (st == LoopStatus::kIterationLimit)
      return {SolveStatus::kIterationLimit, 0.0, {}};
    double art_sum = 0.0;
    for (std::size_t i = 0; i < m_; ++i)
      if (static_cast<std::size_t>(basic_[i]) >= n_)
        art_sum += std::max(0.0, beta_[i]);
    if (art_sum > 1e-6) return {SolveStatus::kInfeasible, 0.0, {}};
    expel_artificials();
    for (std::size_t q = n_; q < n_ + n_art_; ++q) hi_[q] = 0.0;  // freeze
  }

  cost_.assign(obj_.begin(), obj_.end());
  compute_reduced_costs(cost_);
  switch (primal_loop(budget)) {
    case LoopStatus::kOptimal: return extract(*model_, out);
    case LoopStatus::kUnbounded: return {SolveStatus::kUnbounded, 0.0, {}};
    case LoopStatus::kInfeasible: return {SolveStatus::kInfeasible, 0.0, {}};
    case LoopStatus::kIterationLimit: break;
  }
  return {SolveStatus::kIterationLimit, 0.0, {}};
}

// ---------------------------------------------------------------------
// SimplexSolver facade.
// ---------------------------------------------------------------------

Solution SimplexSolver::solve(const Model& model) const {
  return solve(model, nullptr);
}

Solution SimplexSolver::solve(const Model& model, Basis* basis) const {
  BoundedSimplex bs(model);
  Solution sol = bs.solve(basis, basis);
  stats_ = bs.stats();
  return sol;
}

}  // namespace dsp::lp
