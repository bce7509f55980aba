// Aalo baseline (Chowdhury & Stoica, SIGCOMM 2015): information-agnostic
// coflow scheduling via discretized multi-level feedback queues.
//
// Aalo keeps K priority queues with exponentially spaced service
// thresholds; a coflow starts in the highest-priority queue and is demoted
// as its cumulative service grows, approximating
// shortest-coflow-first without prior knowledge. Within a queue, FIFO.
//
// Following the paper's adaptation (§V: "we consider a job as a coflow and
// the task as the flows in the coflow"), our Aalo dispatches the runnable
// waiting task whose *job* sits in the lowest-numbered queue (least
// cumulative serviced work), FIFO within a queue. All tasks of a job share
// the job's queue level, which respects dependency batching; deadlines are
// ignored (Aalo has none).
#pragma once

#include "sim/engine.h"
#include "sim/policy.h"

namespace dsp {

/// K, Aalo's number of queues.
inline constexpr int kAaloQueueCount = 5;
/// Service ceiling (MI) of queue 0.
inline constexpr double kAaloFirstThresholdMi = 1.0e5;
/// E, the exponential spacing: each queue's ceiling is E times the last.
inline constexpr double kAaloThresholdFactor = 10.0;

/// Aalo multi-level-feedback-queue scheduler.
class AaloScheduler : public Scheduler {
 public:
  const char* name() const override { return "Aalo"; }

  /// Placement: place_least_backlog in topological order (Aalo itself
  /// schedules flows over fixed endpoints; placement is outside its scope).
  std::vector<TaskPlacement> schedule(const std::vector<JobId>& jobs,
                                      Engine& engine) override;

  /// Dispatch: runnable fitting task whose job has the lowest queue level;
  /// FIFO (queue position) within a level.
  Gid select_next(int node, Engine& engine,
                  const std::vector<std::uint8_t>& excluded) override;

  /// Queue level for a job that has received `serviced_mi` of service.
  static int queue_level(double serviced_mi);
};

}  // namespace dsp
