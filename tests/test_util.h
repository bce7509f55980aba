// Shared builders and stub policies for the DSP test suite.
#pragma once

#include <memory>
#include <vector>

#include "dag/job.h"
#include "obs/events.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "sim/recorder.h"

namespace dsp::testing {

inline constexpr double kTestRate = 1000.0;  // MIPS of the test reference

/// A job with `n` tasks and no dependencies, each of `size_mi`.
Job make_independent_job(JobId id, std::size_t n, double size_mi,
                         SimTime arrival = 0, SimTime deadline = kMaxTime);

/// A linear chain: task 0 -> 1 -> ... -> n-1.
Job make_chain_job(JobId id, std::size_t n, double size_mi,
                   SimTime arrival = 0, SimTime deadline = kMaxTime);

/// A diamond: 0 -> {1, 2} -> 3.
Job make_diamond_job(JobId id, double size_mi, SimTime arrival = 0,
                     SimTime deadline = kMaxTime);

/// The paper's Fig. 2 example: T1 feeds T2,T3; T2 feeds T4,T5; T3 feeds
/// T6,T7 (0-indexed: 0 -> {1,2}; 1 -> {3,4}; 2 -> {5,6}).
Job make_fig2_job(JobId id, double size_mi = 1000.0, SimTime arrival = 0,
                  SimTime deadline = kMaxTime);

/// The paper's Fig. 3 shapes in one job, as three roots:
///  - A ("T1"):  root with 4 children, no grandchildren.
///  - B ("T6"):  root with 4 children, 1 grandchild under one child.
///  - C ("T11"): root with 4 children, 3 grandchildren spread under them.
/// Returns the job; roots are tasks 0 (A), 5 (B), 11 (C).
Job make_fig3_job(JobId id, double size_mi = 1000.0, SimTime arrival = 0,
                  SimTime deadline = kMaxTime);

/// Places every task on the least-backlogged feasible node in submission
/// order; dispatch is the default (ready-first). The minimal correct
/// scheduler for engine mechanics tests.
class RoundRobinScheduler : public Scheduler {
 public:
  const char* name() const override { return "RoundRobin"; }
  std::vector<TaskPlacement> schedule(const std::vector<JobId>& jobs,
                                      Engine& engine) override;
};

/// Pins every task of every job to one node (requires it to fit).
class PinnedScheduler : public Scheduler {
 public:
  explicit PinnedScheduler(int node) : node_(node) {}
  const char* name() const override { return "Pinned"; }
  std::vector<TaskPlacement> schedule(const std::vector<JobId>& jobs,
                                      Engine& engine) override;

 private:
  int node_;
};

/// A preemption policy that does nothing (lets epochs tick).
class NullPreemption : public PreemptionPolicy {
 public:
  const char* name() const override { return "Null"; }
  void on_epoch(Engine&) override {}
};

/// An event log that feeds every emitted event to `recorder` and keeps
/// nothing else (one-slot ring, no sink). Attach it with
/// engine.set_event_log(log.get()) and keep it alive through run().
std::unique_ptr<obs::EventLog> recorder_log(TimelineRecorder& recorder);

/// Feeds hand-written slot transitions to a TimelineRecorder as the
/// events the engine emits for them (checker mutation tests).
struct TimelineForge {
  TimelineRecorder& recorder;

  /// Dispatch of `g` on `node`; the first `overhead` is not productive.
  void start(SimTime t, Gid g, int node, SimTime overhead = 0);
  void finish(SimTime t, Gid g, int node);
  void suspend(SimTime t, Gid g, int node);
  void job_complete(SimTime t, JobId j);
};

}  // namespace dsp::testing
