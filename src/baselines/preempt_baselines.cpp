#include "baselines/preempt_baselines.h"

#include <algorithm>

namespace dsp {

void QueueScanPreemption::on_epoch(Engine& engine) {
  for (int node = 0; node < static_cast<int>(engine.node_count()); ++node) {
    if (engine.waiting(node).empty()) continue;

    victims_.clear();
    for (Gid r : engine.running(node))
      if (eligible_victim(engine, r)) victims_.push_back(key(engine, r));
    if (victims_.empty()) continue;
    std::sort(victims_.begin(), victims_.end(),
              [this](const Key& a, const Key& b) { return victim_order(a, b); });

    // Snapshot into the reusable buffer: preemption mutates the queue.
    // Every running task is evicted at most once per epoch (victims are
    // consumed), which bounds the per-node work. Failed preempt-in attempts
    // (e.g. unready tasks under these dependency-blind policies) also cost
    // real scheduler time, so they share a per-node budget.
    int attempt_budget = 8 * static_cast<int>(victims_.size());
    engine.waiting_snapshot(node, queue_);
    for (Gid w : queue_) {
      if (victims_.empty() || attempt_budget <= 0) break;
      const TaskState s = engine.state(w);
      if (s != TaskState::kWaiting && s != TaskState::kSuspended) continue;
      if (engine.launch_blocked(w)) continue;  // failed input check earlier
      if (!eligible_preemptor(engine, w)) continue;
      const Key waiting = key(engine, w);

      for (auto it = victims_.begin(); it != victims_.end();) {
        const Gid v = it->gid;
        if (engine.state(v) != TaskState::kRunning) {
          it = victims_.erase(it);
          continue;
        }
        // Victims are sorted best-first; if the best remaining victim is
        // not preemptable by w, none is (DESIGN.md §7: for SRPT this skips
        // later victims a remaining-time test alone would pass).
        if (!should_preempt(waiting, *it)) break;
        // NOTE: no dependency/readiness check — these baselines neglect
        // dependency; the engine records a disorder when w is not ready.
        --attempt_budget;
        const PreemptResult res = engine.try_preempt(node, v, w);
        if (res == PreemptResult::kOk) {
          victims_.erase(it);
          break;
        }
        if (res == PreemptResult::kNoResources) {
          ++it;  // a bigger victim may free enough
          continue;
        }
        // kIncomingNotReady (disorder counted) or invalid: drop this
        // waiting task.
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Amoeba
// ---------------------------------------------------------------------

QueueScanPreemption::Key AmoebaPolicy::key(const Engine& engine,
                                           Gid g) const {
  return {.gid = g, .remaining = engine.remaining_time(g)};
}

bool AmoebaPolicy::victim_order(const Key& a, const Key& b) const {
  // Most resources ~ longest remaining time first (lowest priority).
  return a.remaining != b.remaining ? a.remaining > b.remaining
                                    : a.gid < b.gid;
}

bool AmoebaPolicy::should_preempt(const Key& waiting,
                                  const Key& victim) const {
  // A waiting task displaces a running task that needs strictly more
  // resources (longer remaining time) than itself.
  return waiting.remaining < victim.remaining;
}

// ---------------------------------------------------------------------
// Natjam
// ---------------------------------------------------------------------

namespace {

/// Scalar "resource usage" for Natjam's most-resources-first rule.
double resource_magnitude(const Engine& engine, Gid g) {
  const Resources& d = engine.task_info(g).demand;
  return d.cpu + d.mem;  // disk/bw are constant per §V, so they don't rank
}

}  // namespace

QueueScanPreemption::Key NatjamPolicy::key(const Engine& engine,
                                           Gid g) const {
  return {.gid = g,
          .remaining = engine.remaining_time(g),
          .score = resource_magnitude(engine, g),
          .deadline = engine.job(engine.job_of(g)).deadline()};
}

bool NatjamPolicy::victim_order(const Key& a, const Key& b) const {
  // Most resources first, then maximum deadline, then shortest remaining.
  if (a.score != b.score) return a.score > b.score;
  if (a.deadline != b.deadline) return a.deadline > b.deadline;
  if (a.remaining != b.remaining) return a.remaining < b.remaining;
  return a.gid < b.gid;
}

bool NatjamPolicy::should_preempt(const Key& waiting,
                                  const Key& victim) const {
  (void)waiting;
  (void)victim;
  // Tier eligibility (production preempts research) is enforced by the
  // eligible_* hooks; any eligible pair proceeds.
  return true;
}

bool NatjamPolicy::eligible_preemptor(const Engine& engine, Gid waiting) const {
  return engine.job(engine.job_of(waiting)).tier() == JobTier::kProduction;
}

bool NatjamPolicy::eligible_victim(const Engine& engine, Gid running) const {
  return engine.job(engine.job_of(running)).tier() == JobTier::kResearch;
}

// ---------------------------------------------------------------------
// SRPT
// ---------------------------------------------------------------------

double SrptPolicy::priority(const Engine& engine, Gid g) const {
  return priority(engine, g, engine.remaining_time(g));
}

double SrptPolicy::priority(const Engine& engine, Gid g,
                            SimTime remaining) const {
  const double t_w = engine.accumulated_wait_s(g);
  const double t_rem = std::max(0.001, to_seconds(remaining));
  return alpha_ * t_w + beta_ / t_rem;
}

QueueScanPreemption::Key SrptPolicy::key(const Engine& engine, Gid g) const {
  const SimTime remaining = engine.remaining_time(g);
  return {.gid = g,
          .remaining = remaining,
          .score = priority(engine, g, remaining)};
}

bool SrptPolicy::victim_order(const Key& a, const Key& b) const {
  // Lowest priority (longest remaining) evicted first.
  return a.score != b.score ? a.score < b.score : a.gid < b.gid;
}

bool SrptPolicy::should_preempt(const Key& waiting, const Key& victim) const {
  // Core SRPT semantics: only a strictly shorter-remaining task evicts.
  // Without this guard, SRPT's restart-from-scratch checkpointless mode
  // livelocks: waiting time alone eventually outranks any running task,
  // every epoch swaps, and all progress resets (see DESIGN.md deviations).
  // The linear-combination priority still orders victims and preemptors.
  return waiting.remaining < victim.remaining &&
         waiting.score > victim.score;
}

}  // namespace dsp
