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
  /// decision, event or delta change is skipped; (3) compute Formula
  /// 12/13 priorities; (4) sort each node's victims by (priority, gid)
  /// and run the urgent and window passes node by node.
  void on_epoch(Engine& engine) override;

  /// Current (possibly adapted) delta window.
  double current_delta() const { return delta_; }

  const DspParams& params() const { return params_; }

 private:
  void urgent_pass(Engine& engine, int node, std::vector<Gid>& preemptable,
                   double pbar);
  /// Returns {considered, preempted} counts for the adaptive controller.
  std::pair<std::uint64_t, std::uint64_t> window_pass(
      Engine& engine, int node, std::vector<Gid>& preemptable, double pbar);
  /// Seeds a decision record for candidate `w` with its priority and the
  /// PP parameters in effect (rho, whether the gate is enabled).
  obs::PreemptDecision make_decision(int node, Gid w) const;
  void adapt_delta(std::uint64_t considered, std::uint64_t preempted);
  /// Straggler mitigation: vacate degraded nodes and migrate their work.
  void mitigate_stragglers(Engine& engine) const;

  /// Bounds-checked priority lookup. Every gid handed to the passes is a
  /// running victim or a queued candidate, so its job is scheduled and
  /// unfinished and compute_all defined its entry this epoch.
  double prio_at(Gid g) const {
    assert(g < prio_.size());
    return prio_[g];
  }

  /// Appends `node`'s preemptable running tasks (allowable waiting time
  /// beyond the epoch) to `out`, unsorted. Reads engine state only, no
  /// priorities, so on_epoch runs it before deciding whether priorities
  /// are needed at all.
  static void collect_preemptable(const Engine& engine, int node,
                                  std::vector<Gid>& out);

  DspParams params_;
  DependencyPriority priority_;
  std::vector<double> prio_;  // scratch, indexed by gid
  std::vector<std::vector<Gid>> victims_;  // per-node scratch
  std::vector<Gid> ready_scratch_;         // per-pass snapshot buffer
  double delta_;
};

}  // namespace dsp
