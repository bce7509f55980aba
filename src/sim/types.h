// Shared simulator types: global task ids, lifecycle states, preemption
// mechanics results.
#pragma once

#include <cstdint>

namespace dsp {

/// Global task id: a flat index over all tasks of all jobs in one run.
/// The engine maps Gid <-> (JobId, TaskIndex).
using Gid = std::uint32_t;

inline constexpr Gid kInvalidGid = ~Gid{0};

/// Task lifecycle within a simulation run.
enum class TaskState : std::uint8_t {
  kUnscheduled,  ///< Job arrived but not yet placed by the offline scheduler.
  kWaiting,      ///< In a node's waiting queue (ready or not).
  kRunning,      ///< Occupying a slot.
  kHoarding,     ///< Launched before its inputs exist: occupies a slot but
                 ///< makes no progress (dependency-blind dispatch only).
  kSuspended,    ///< Preempted; back in the waiting queue with saved state.
  kFinished,     ///< Completed execution.
};

const char* to_string(TaskState s);

/// True while the task sits in a node's waiting queue: waiting to start
/// or suspended awaiting resume.
constexpr bool queued(TaskState s) {
  return s == TaskState::kWaiting || s == TaskState::kSuspended;
}

/// What happens to a task's completed work when it is preempted.
enum class CheckpointMode : std::uint8_t {
  kCheckpoint,  ///< Resume from the last checkpoint (DSP, Amoeba, Natjam).
  kRestart,     ///< Lose all progress; restart from scratch (SRPT).
};

/// Outcome of Engine::try_preempt.
enum class PreemptResult : std::uint8_t {
  kOk,                 ///< Victim suspended, incoming started.
  kIncomingNotReady,   ///< Incoming has unfinished precedents (a *disorder*).
  kIncomingNotWaiting, ///< Incoming is not waiting on that node.
  kVictimNotRunning,   ///< Victim is not running on that node.
  kNoResources,        ///< Incoming's demand does not fit even after evicting the victim.
};

const char* to_string(PreemptResult r);

}  // namespace dsp
