#include "analysis/rules.h"

namespace dsp::analysis {
namespace {

constexpr RuleInfo kCatalog[] = {
    // ---- Workload lint ------------------------------------------------
    {"W000", "trace-parse", Severity::kError,
     "workload trace file could not be parsed", "-"},
    {"W001", "dag-cycle", Severity::kError,
     "dependency graph contains a cycle; no topological order exists",
     "§III chain model"},
    {"W002", "unreachable-task", Severity::kError,
     "task depends on a nonexistent task and can never become ready",
     "§III constraint (7)"},
    {"W003", "deadline-infeasible-by-critical-path", Severity::kError,
     "critical-path time on the fastest node already exceeds the deadline",
     "§III constraint (6), Eq. (2)"},
    {"W004", "demand-unsatisfiable", Severity::kError,
     "task resource demand fits no node of the cluster", "§III placement"},
    {"W005", "invalid-structure", Severity::kError,
     "structural validity: sizes, demands, deadline ordering, DAG shape caps",
     "§V workload recipe"},
    // ---- Schedule constraint check ------------------------------------
    {"S000", "schedule-parse", Severity::kError,
     "schedule file could not be parsed or is internally inconsistent", "-"},
    {"S001", "dependency-order", Severity::kError,
     "task starts before a precedent task's completion",
     "§III constraint (7)"},
    {"S002", "node-overlap", Severity::kError,
     "two tasks overlap on the same single-task machine",
     "§III constraints (5)/(8)"},
    {"S003", "deadline-violation", Severity::kError,
     "task completion (incl. preemption padding) exceeds its deadline",
     "§III constraint (6)"},
    {"S004", "unplaced-task", Severity::kError,
     "task has no valid machine assignment or a negative start time",
     "§III constraints (9)-(11)"},
    {"S005", "makespan-understated", Severity::kError,
     "declared makespan L_MS is smaller than some task's completion",
     "§III constraint (4)"},
    // ---- Preemption audit replay --------------------------------------
    {"P000", "audit-malformed", Severity::kError,
     "decision stream unreadable, out of time order, or inconsistent with "
     "the workload",
     "-"},
    {"P001", "formula12-monotonicity", Severity::kError,
     "an ancestor task's recorded priority does not dominate its "
     "descendant's (Formula 12 aggregates descendants scaled by gamma+1)",
     "§IV-A Formulas 12/13, Fig. 3"},
    {"P002", "c1-priority-gap", Severity::kError,
     "a non-urgent preemption fired although the candidate's priority did "
     "not exceed the victim's (condition C1)",
     "§IV Algorithm 1, C1"},
    {"P003", "c2-dependency-on-victim", Severity::kError,
     "a preemption fired although the candidate depends on the victim "
     "(condition C2)",
     "§IV Algorithm 1, C2"},
    {"P004", "rho-normalization", Severity::kError,
     "the normalized-priority gate P-tilde > rho was applied incorrectly "
     "(fired below the gate, or suppressed above it)",
     "§IV-C normalized-priority preemption"},
    // ---- Source determinism lint (dsp_tidy) ----------------------------
    {"D000", "libc-random", Severity::kError,
     "libc random source (rand/srand/srandom/drand48/...) — use util/rng's "
     "seeded xoshiro engine",
     "§V reproducibility"},
    {"D001", "std-random-device", Severity::kError,
     "std::random_device draws entropy from the OS; runs stop being "
     "reproducible from a seed",
     "§V reproducibility"},
    {"D002", "wall-clock", Severity::kError,
     "wall-clock read (time()/system_clock/...) outside the whitelisted "
     "time/log utilities; simulation logic must use SimTime",
     "§V reproducibility"},
    {"D003", "unordered-iteration", Severity::kError,
     "unordered_map/unordered_set in core/sim code: iteration order is "
     "hash-seed dependent, so accumulation over it is nondeterministic",
     "§IV Algorithm 1 determinism"},
    {"D004", "thread-outside-pool", Severity::kError,
     "std::thread/std::async spawned outside util/thread_pool; ad-hoc "
     "threads bypass parallel_for's deterministic fan-out discipline",
     "§IV Algorithm 1 determinism"},
    {"D005", "std-random-engine", Severity::kError,
     "<random> engine or distribution: outputs are not specified "
     "bit-exactly across standard libraries — use util/rng",
     "§V reproducibility"},
    // ---- Source concurrency/robustness lint (dsp_tidy) -----------------
    {"C000", "unguarded-global-state", Severity::kError,
     "mutable file-scope state without atomic, thread_local or const",
     "-"},
    {"C001", "io-under-lock", Severity::kError,
     "blocking I/O or logging while a lock is held stalls every thread "
     "contending for the mutex",
     "-"},
    {"C002", "raw-new-delete", Severity::kError,
     "raw new/delete — use std::make_unique/containers (RAII, Core "
     "Guidelines R.11)",
     "-"},
    {"C003", "unchecked-hot-index", Severity::kError,
     "subscript-returning accessor in core/sim without a bounds assert "
     "within reach (the prio_at discipline from the hot-path PR)",
     "-"},
    {"C004", "console-io-outside-log", Severity::kError,
     "printf/std::cout/std::cerr outside util/log; library code must log "
     "through DSP_LOG so levels and line atomicity hold",
     "-"},
    {"C005", "manual-lock", Severity::kError,
     "manual mutex lock()/unlock() instead of RAII (std::scoped_lock, "
     "Core Guidelines CP.20)",
     "-"},
};

}  // namespace

std::span<const RuleInfo> rule_catalog() { return kCatalog; }

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& rule : kCatalog)
    if (id == rule.id) return &rule;
  return nullptr;
}

}  // namespace dsp::analysis
