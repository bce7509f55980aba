#include "analysis/audit_replay.h"

#include <cstdarg>
#include <cstdio>

namespace dsp::analysis {
namespace {

/// Flat gid addressing mirroring the engine's (job-major, task order).
struct GidMap {
  std::vector<Gid> offsets;
  Gid total = 0;

  explicit GidMap(const JobSet& jobs) {
    offsets.reserve(jobs.size());
    for (const Job& job : jobs) {
      offsets.push_back(total);
      total += static_cast<Gid>(job.task_count());
    }
  }

  bool contains(Gid g) const { return g < total; }

  /// Job index owning `g` (offsets are sorted; binary search).
  std::size_t job_of(Gid g) const {
    std::size_t lo = 0, hi = offsets.size();
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (offsets[mid] <= g) lo = mid;
      else hi = mid;
    }
    return lo;
  }

  TaskIndex index_of(Gid g, std::size_t job) const {
    return static_cast<TaskIndex>(g - offsets[job]);
  }
};

std::string subject_of(std::size_t i, const obs::PreemptDecision& d) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "decision %zu (t=%lld us, node %d)", i,
                static_cast<long long>(d.time), d.node);
  return buf;
}

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

}  // namespace

void replay_audit(const std::vector<obs::PreemptDecision>& decisions,
                  const AuditReplayOptions& options, Report& report) {
  const JobSet* jobs = options.workload;
  static const JobSet kNoJobs;
  const GidMap gids(jobs ? *jobs : kNoJobs);
  const double tol = kAuditReplayTol;

  SimTime last_time = kNoTime;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const obs::PreemptDecision& d = decisions[i];
    const bool fired = d.outcome == obs::PreemptOutcome::kFired;
    const bool suppressed = d.outcome == obs::PreemptOutcome::kSuppressedPP;
    const bool has_victim = d.victim != kInvalidGid;

    // ---- P000: stream integrity. -------------------------------------
    if (last_time != kNoTime && d.time < last_time) {
      report.add("P000", subject_of(i, d),
                 "engine time goes backwards (previous decision at t=" +
                     std::to_string(last_time) + " us)");
    }
    last_time = d.time;
    bool gids_valid = jobs != nullptr;
    if (jobs) {
      if (!gids.contains(d.candidate)) {
        report.add("P000", subject_of(i, d),
                   "candidate gid " + std::to_string(d.candidate) +
                       " does not exist in the workload (" +
                       std::to_string(gids.total) + " tasks)");
        gids_valid = false;
      }
      if (has_victim && !gids.contains(d.victim)) {
        report.add("P000", subject_of(i, d),
                   "victim gid " + std::to_string(d.victim) +
                       " does not exist in the workload (" +
                       std::to_string(gids.total) + " tasks)");
        gids_valid = false;
      }
    }

    // ---- P002: condition C1 on non-urgent fires. ---------------------
    if (fired && !d.urgent && has_victim &&
        d.candidate_priority <= d.victim_priority + tol) {
      report.add("P002", subject_of(i, d),
                 fmt("fired with candidate priority %.6g <= victim priority "
                     "%.6g (C1 requires strictly greater)",
                     d.candidate_priority, d.victim_priority));
    }

    // ---- P004: the normalized-priority gate. -------------------------
    if (suppressed) {
      if (!d.pp) {
        report.add("P004", subject_of(i, d),
                   "suppressed by the PP gate although normalized preemption "
                   "was disabled");
      } else if (d.normalized_gap > d.rho + tol) {
        report.add("P004", subject_of(i, d),
                   fmt("suppressed although P-tilde %.6g > rho %.6g (the gate "
                       "only suppresses gaps at or below rho)",
                       d.normalized_gap, d.rho));
      }
    }
    if (fired && !d.urgent && d.pp && has_victim && d.normalized_gap != 0.0 &&
        d.normalized_gap <= d.rho - tol) {
      report.add("P004", subject_of(i, d),
                 fmt("fired with P-tilde %.6g <= rho %.6g; the PP gate should "
                     "have suppressed this preemption",
                     d.normalized_gap, d.rho));
    }

    // ---- Dependency-aware rules need the workload's DAGs. ------------
    if (!gids_valid || !has_victim) continue;
    const std::size_t cj = gids.job_of(d.candidate);
    const std::size_t vj = gids.job_of(d.victim);
    if (cj != vj) continue;  // tasks of different jobs never depend
    const Job& job = (*jobs)[cj];
    if (!job.finalized()) continue;
    const TaskIndex ct = gids.index_of(d.candidate, cj);
    const TaskIndex vt = gids.index_of(d.victim, vj);

    // ---- P003: condition C2 — the candidate must not depend on the
    // victim it displaced (it would stall waiting for its own input).
    if (fired && job.graph().depends_on(ct, vt)) {
      report.add("P003", subject_of(i, d),
                 "fired although candidate task " + std::to_string(ct) +
                     " (job " + std::to_string(job.id()) +
                     ") transitively depends on victim task " +
                     std::to_string(vt) + " (C2)");
    }

    // ---- P001: Formula 12 monotonicity down the DAG. -----------------
    if ((fired || suppressed) && job.graph().depends_on(vt, ct) &&
        d.candidate_priority > tol && d.victim_priority > tol &&
        d.candidate_priority <= d.victim_priority + tol) {
      report.add(
          "P001", subject_of(i, d),
          fmt("candidate is an ancestor of the victim but its priority %.6g "
              "does not dominate the victim's %.6g; Formula 12 aggregates "
              "descendant priorities scaled by gamma+1 >= 1",
              d.candidate_priority, d.victim_priority));
    }
  }
}

}  // namespace dsp::analysis
