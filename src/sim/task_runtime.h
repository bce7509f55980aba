// TaskRuntime: per-task and per-job mutable state of the simulation kernel.
//
// One of the four layers of the simulation kernel (see DESIGN.md §16).
// TaskRuntime owns the flat Gid index over all tasks of all jobs, each
// task's lifecycle record (progress, checkpoint/recovery bookkeeping,
// preemption counts, waiting clocks) and per-job completion tracking. It
// holds no cluster or calendar state: time and node rates are passed in
// where a computation needs them, so the layer stays independently
// testable.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "dag/job.h"
#include "sim/types.h"
#include "util/time.h"

namespace dsp {

/// Mutable per-task record.
struct TaskRt {
  TaskState state = TaskState::kUnscheduled;
  int node = -1;
  SimTime planned_start = 0;
  double executed_mi = 0.0;
  SimTime waiting_since = kNoTime;
  SimTime first_start = kNoTime;
  SimTime finish = kNoTime;
  SimTime last_dispatch = kNoTime;
  SimTime current_overhead = 0;
  double total_wait_s = 0.0;
  std::uint32_t token = 0;
  std::int32_t preemptions = 0;
  std::uint32_t unfinished_parents = 0;
};

/// Mutable per-job record.
struct JobRt {
  std::uint32_t unfinished_tasks = 0;
  std::uint32_t pred_jobs_remaining = 0;  // cross-job dependencies
  std::vector<JobId> successor_jobs;
  double serviced_mi = 0.0;
  bool scheduled = false;
  bool finished = false;
};

/// The kernel's task/job state store. Initialized once from a finalized
/// JobSet (which must outlive it); mutated only by the Engine orchestrator.
class TaskRuntime {
 public:
  /// Builds the flat index and zeroed runtime records. Every job must be
  /// finalized and ids must equal positions (the engine enforces both).
  void init(const JobSet& jobs);

  // ---- Flat indexing -------------------------------------------------
  std::size_t task_count() const { return rt_.size(); }
  std::size_t job_count() const { return job_rt_.size(); }
  Gid gid(JobId j, TaskIndex t) const {
    assert(j < job_offset_.size());
    return job_offset_[j] + t;
  }
  JobId job_of(Gid g) const {
    assert(g < task_job_.size());
    return task_job_[g];
  }
  TaskIndex index_of(Gid g) const {
    assert(g < task_index_.size());
    return task_index_[g];
  }
  const Task& task_info(Gid g) const {
    assert(g < task_job_.size());
    return (*jobs_)[task_job_[g]].task(task_index_[g]);
  }

  // ---- Per-task records ----------------------------------------------
  TaskRt& rt(Gid g) {
    assert(g < rt_.size());
    return rt_[g];
  }
  const TaskRt& rt(Gid g) const {
    assert(g < rt_.size());
    return rt_[g];
  }

  /// True when a previous launch attempt failed the input check and the
  /// block has not been cleared since (see Engine::launch_blocked).
  bool launch_blocked_flag(Gid g) const {
    assert(g < launch_blocked_.size());
    return launch_blocked_[g] != 0;
  }
  void set_launch_blocked(Gid g) {
    assert(g < launch_blocked_.size());
    launch_blocked_[g] = 1;
  }

  // ---- Per-job records -----------------------------------------------
  JobRt& job_rt(JobId j) {
    assert(j < job_rt_.size());
    return job_rt_[j];
  }
  const JobRt& job_rt(JobId j) const {
    assert(j < job_rt_.size());
    return job_rt_[j];
  }

  /// True when every precedent task of `g` has finished and every
  /// predecessor job of its job has completed. Monotone: once true, it
  /// stays true for the rest of the run.
  bool ready(Gid g) const {
    return rt(g).unfinished_parents == 0 &&
           job_rt(job_of(g)).pred_jobs_remaining == 0;
  }

 private:
  const JobSet* jobs_ = nullptr;

  std::vector<Gid> job_offset_;        // per job: first gid
  std::vector<JobId> task_job_;        // per gid
  std::vector<TaskIndex> task_index_;  // per gid

  std::vector<TaskRt> rt_;
  std::vector<JobRt> job_rt_;
  std::vector<std::uint8_t> launch_blocked_;  // failed input checks
};

}  // namespace dsp
