// TaskRuntime: per-task and per-job mutable state of the simulation kernel.
//
// One of the four layers of the simulation kernel (see DESIGN.md §16).
// TaskRuntime owns the flat Gid index over all tasks of all jobs, each
// task's lifecycle record (executed work, dispatch and overhead times,
// waiting-clock fields, preemption counts, event tokens) and per-job
// completion tracking. It stores the records and applies no rule to them:
// progress since dispatch, the waiting clock, checkpoint and resume
// charges and finish arming are each one Engine member (DESIGN.md §16.1),
// the only code that writes these records. It holds no cluster or
// calendar state.
//
// Besides the records, two compact per-task facts serve the
// dependency-blind queue scans (DESIGN.md §10.5), which reject most
// queued tasks before they need anything else:
//   - a state byte with a *ready* bit (every precedent task finished) and
//     a *launch-blocked* bit (a launch attempt failed the input check), so
//     ready() and launch_blocked() read one byte instead of TaskRt;
//   - the remaining MI a queued task carries. A queued task makes no
//     progress, so the value written when it is queued stays exact until
//     it leaves the queue.
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

  /// True when a previous launch attempt failed the input check. The bit
  /// is never cleared; Engine::launch_blocked masks it with readiness.
  bool launch_blocked_flag(Gid g) const {
    assert(g < state_bits_.size());
    return (state_bits_[g] & kBlockedBit) != 0;
  }
  void set_launch_blocked(Gid g) {
    assert(g < state_bits_.size());
    state_bits_[g] |= kBlockedBit;
  }
  /// launch_blocked_flag(g) && !ready(g), from the state byte alone.
  bool launch_blocked(Gid g) const {
    assert(g < state_bits_.size());
    return (state_bits_[g] & (kBlockedBit | kReadyBit)) == kBlockedBit;
  }

  /// Work left in MI when `g` was last queued: max(0, size_mi -
  /// executed_mi), written by Engine::enqueue_waiting. Exact while `g`
  /// is waiting or suspended; stale once it runs again.
  double queued_remaining_mi(Gid g) const {
    assert(g < queued_remaining_mi_.size());
    return queued_remaining_mi_[g];
  }
  void set_queued_remaining_mi(Gid g, double mi) {
    assert(g < queued_remaining_mi_.size());
    queued_remaining_mi_[g] = mi;
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

  /// True when every precedent task of `g` has finished. Reads the ready
  /// bit, which init() sets for parentless tasks and the Engine sets when
  /// the last parent finishes. Monotone: once true, it stays true.
  bool ready(Gid g) const {
    assert(g < state_bits_.size());
    assert(((state_bits_[g] & kReadyBit) != 0) ==
           (rt(g).unfinished_parents == 0));
    return (state_bits_[g] & kReadyBit) != 0;
  }
  void set_ready(Gid g) {
    assert(g < state_bits_.size());
    state_bits_[g] |= kReadyBit;
  }

 private:
  static constexpr std::uint8_t kReadyBit = 1;
  static constexpr std::uint8_t kBlockedBit = 2;

  const JobSet* jobs_ = nullptr;

  std::vector<Gid> job_offset_;        // per job: first gid
  std::vector<JobId> task_job_;        // per gid
  std::vector<TaskIndex> task_index_;  // per gid

  std::vector<TaskRt> rt_;
  std::vector<JobRt> job_rt_;
  std::vector<std::uint8_t> state_bits_;     // per gid: kReadyBit | kBlockedBit
  std::vector<double> queued_remaining_mi_;  // per gid, while queued
};

}  // namespace dsp
