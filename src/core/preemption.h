// DSP's online dependency-aware preemption (paper §IV, Algorithm 1).
//
// Each epoch, per node:
//   1. *Urgent* waiting tasks — allowable waiting time t^a <= epsilon, or
//      waiting time t^w >= tau — preempt the lowest-priority preemptable
//      running task they do not depend on, regardless of condition C1.
//   2. The first ceil(delta * |queue|) waiting tasks (the *preempting
//      tasks*) each scan the preemptable running tasks in ascending
//      priority and preempt the first victim satisfying
//        C1: waiting priority > running priority,
//        C2: the waiting task does not depend on the victim,
//      and — when normalized-priority preemption (PP) is enabled — the
//      gap check  P-hat / P-bar > rho, where P-bar is the mean
//      neighbor gap of the global sorted priority sequence. PP suppresses
//      churn preemptions whose context-switch cost outweighs the gain.
//
// Preemptable running tasks are those whose allowable waiting time exceeds
// the epoch, so being suspended cannot make them miss their deadline.
// delta adapts each epoch to the fraction of considered tasks that
// actually preempted (§IV-B).
//
// Priorities are read on demand (DESIGN.md §10.2): a job's Formula 12/13
// values are computed at the first read of one of its tasks in the epoch,
// P-bar at the epoch's first PP test, and the fields only the event
// stream reads only when the engine has a log attached.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/params.h"
#include "core/priority.h"
#include "sim/engine.h"
#include "sim/policy.h"

namespace dsp {

/// DSP's preemption policy (set params.normalized_pp = false for the
/// paper's DSPW/oPP ablation variant).
class DspPreemption : public PreemptionPolicy {
 public:
  explicit DspPreemption(DspParams params = {})
      : params_(params), priority_(params_), delta_(params_.delta) {}

  const char* name() const override {
    return params_.normalized_pp ? "DSP" : "DSPW/oPP";
  }

  CheckpointMode checkpoint_mode() const override {
    return CheckpointMode::kCheckpoint;
  }

  /// One Algorithm-1 epoch: (1) collect every node's preemptable running
  /// tasks; (2) return if there are none — no pass could run, so no
  /// decision, event or delta change is skipped; (3) sort each node's
  /// victims by (priority, gid) and run the urgent and window passes node
  /// by node. Priorities are computed on demand (prio_at, mean_gap).
  void on_epoch(Engine& engine) override;

  /// Current (possibly adapted) delta window.
  double current_delta() const { return delta_; }

  const DspParams& params() const { return params_; }

 private:
  void urgent_pass(Engine& engine, int node, std::vector<Gid>& preemptable);
  /// Returns {considered, preempted} counts for the adaptive controller.
  std::pair<std::uint64_t, std::uint64_t> window_pass(
      Engine& engine, int node, std::vector<Gid>& preemptable);
  /// Seeds a decision record for candidate `w` with the PP parameters in
  /// effect (rho, whether the gate is enabled). The candidate's priority
  /// is left to the pass, which reads it only when something needs it.
  obs::PreemptDecision make_decision(int node, Gid w) const;
  /// Marks `d` fired against victim `v`. P-tilde is read only by the
  /// event stream, so it (and P-bar with it) is computed only when the
  /// engine has a log attached.
  void mark_fired(const Engine& engine, obs::PreemptDecision& d, Gid v);
  void adapt_delta(std::uint64_t considered, std::uint64_t preempted);
  /// Straggler mitigation: vacate degraded nodes and migrate their work.
  void mitigate_stragglers(Engine& engine) const;

  /// Formula 12/13 priority of `g` this epoch. The first read of a job's
  /// task in an epoch runs compute_job for that job (job_epoch_ stamps
  /// it); later reads are lookups. Every gid handed to the passes is a
  /// running victim or a queued candidate, so its job is scheduled and
  /// unfinished. Exact mid-epoch: no task finishes within an epoch, and
  /// a preemption leaves every Formula 13 input of both tasks
  /// bit-identical, so a job computed after some preemptions equals the
  /// epoch-start snapshot.
  double prio_at(const Engine& engine, Gid g) {
    compute_job_once(engine, engine.job_of(g));
    assert(g < prio_.size());
    return prio_[g];
  }
  /// Runs compute_job for `j` unless prio_ already holds its tasks this
  /// epoch. Timed as priority.job_s here, not inside compute_job, so
  /// compute_all's own calls are not counted twice.
  void compute_job_once(const Engine& engine, JobId j);
  /// P-bar, the mean neighbour gap of every live task's priority. The
  /// first call in an epoch runs compute_all (which also fills prio_ for
  /// every job); later calls return the cached value.
  double mean_gap(const Engine& engine);

  /// Appends `node`'s preemptable running tasks (allowable waiting time
  /// beyond the epoch) to `out`, unsorted. Reads engine state only, no
  /// priorities, so on_epoch runs it before deciding whether priorities
  /// are needed at all.
  static void collect_preemptable(const Engine& engine, int node,
                                  std::vector<Gid>& out);

  DspParams params_;
  DependencyPriority priority_;
  std::vector<double> prio_;  // this epoch's priorities, indexed by gid
  // Per job: the epoch ordinal in which prio_ last received its tasks.
  std::vector<std::uint64_t> job_epoch_;
  std::uint64_t epoch_ = 0;  // ordinal of epochs with a victim, from 1
  bool all_computed_ = false;  // compute_all ran this epoch
  double pbar_ = 0.0;          // valid while all_computed_
  std::vector<std::vector<Gid>> victims_;  // per-node scratch
  std::vector<Gid> ready_scratch_;         // per-pass snapshot buffer
  double delta_;
};

}  // namespace dsp
