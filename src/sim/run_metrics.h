// Per-run metrics: everything the paper's Figures 5-8 report.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/job.h"
#include "util/time.h"

namespace dsp {

/// Per-job outcome record, kept for post-run analysis (per-class
/// breakdowns, completion-time CDFs).
struct JobRecord {
  JobId id = kInvalidJob;
  JobSize size_class = JobSize::kSmall;
  JobTier tier = JobTier::kProduction;
  SimTime arrival = 0;
  SimTime finish = 0;
  double mean_task_wait_s = 0.0;
  bool met_deadline = false;

  SimTime completion_time() const { return finish - arrival; }
};

/// Aggregate results of one simulation run.
struct RunMetrics {
  // ---- Figure 5 / 8(a): makespan ----
  /// Time from the earliest job arrival to the last task completion.
  SimTime makespan = 0;

  // ---- Figure 6(b) / 7(b) / 8(b): throughput ----
  std::uint64_t tasks_finished = 0;
  std::uint64_t jobs_finished = 0;
  /// Jobs that completed by their deadline (the paper's throughput counts
  /// jobs finishing "within their job deadlines").
  std::uint64_t jobs_met_deadline = 0;

  /// Tasks per millisecond of makespan — the paper's Fig. 6(b) metric.
  double throughput_tasks_per_ms() const {
    const double ms = to_millis(makespan);
    return ms > 0.0 ? static_cast<double>(tasks_finished) / ms : 0.0;
  }

  /// Deadline-meeting jobs per hour — the paper's definition of throughput
  /// in §III ("jobs that complete ... within their job deadlines during a
  /// unit of time").
  double throughput_jobs_per_hour() const {
    const double h = to_seconds(makespan) / 3600.0;
    return h > 0.0 ? static_cast<double>(jobs_met_deadline) / h : 0.0;
  }

  // ---- Figure 6(a) / 7(a): dependency disorders ----
  /// Times a policy selected (dispatched or preempted-in) a task whose
  /// precedent tasks had not finished.
  std::uint64_t disorders = 0;

  // ---- Figure 6(c) / 7(c): job waiting time ----
  /// Per-job mean task waiting time (seconds), one entry per finished job.
  std::vector<double> job_waiting_s;

  double avg_job_waiting_s() const {
    if (job_waiting_s.empty()) return 0.0;
    double total = 0.0;
    for (double w : job_waiting_s) total += w;
    return total / static_cast<double>(job_waiting_s.size());
  }

  /// One record per finished job, in completion order.
  std::vector<JobRecord> job_records;

  /// Mean job completion time (finish - arrival) in seconds, optionally
  /// restricted to one size class (pass nullptr for all).
  double avg_completion_s(const JobSize* size_class = nullptr) const {
    double total = 0.0;
    std::size_t n = 0;
    for (const auto& r : job_records) {
      if (size_class && r.size_class != *size_class) continue;
      total += to_seconds(r.completion_time());
      ++n;
    }
    return n ? total / static_cast<double>(n) : 0.0;
  }

  // ---- Figure 6(d) / 7(d): preemptions ----
  std::uint64_t preemptions = 0;
  /// Preemption attempts suppressed by DSP's normalized-priority check.
  std::uint64_t suppressed_preemptions = 0;

  // ---- Algorithm-1 outcomes (obs::PreemptDecision, obs/events.h) ----
  /// Candidate evaluations recorded via Engine::record_preempt_decision.
  /// Fired evaluations are counted by `preemptions`, PP suppressions by
  /// `suppressed_preemptions`; the two fields below cover the rest.
  std::uint64_t preempt_evaluations = 0;
  /// Evaluations where every C1-viable victim failed C2 (the candidate
  /// depends on it).
  std::uint64_t preempt_blocked_dependency = 0;
  /// Evaluations where no running task passed C1 at all.
  std::uint64_t preempt_no_victim = 0;

  // ---- Fault injection (failures.h) ----
  std::uint64_t node_failures = 0;          ///< Outages that took effect.
  std::uint64_t tasks_killed_by_failure = 0;
  double work_lost_mi = 0.0;  ///< Progress discarded by failures/restarts.

  // ---- Data locality (§VI future work) ----
  /// First launches of input-constrained tasks on a node holding their
  /// data vs. launches that had to fetch remotely.
  std::uint64_t locality_local = 0;
  std::uint64_t locality_remote = 0;

  double locality_hit_rate() const {
    const auto total = locality_local + locality_remote;
    return total ? static_cast<double>(locality_local) /
                       static_cast<double>(total)
                 : 1.0;
  }

  // ---- Supplementary ----
  std::uint64_t deadline_misses = 0;
  /// Busy slot-time divided by total slot-time over the makespan.
  double slot_utilization = 0.0;
  /// Total context-switch + checkpoint-recovery overhead paid (seconds).
  double overhead_s = 0.0;
  /// Wall-clock seconds the simulation itself took (for bench reporting).
  double sim_wall_s = 0.0;
};

}  // namespace dsp
