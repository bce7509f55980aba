#include "baselines/preempt_baselines.h"

#include <algorithm>
#include <cassert>

namespace dsp {

void QueueScanPreemption::on_epoch(Engine& engine) {
  const bool shorter = requires_shorter_remaining();
  for (int node = 0; node < static_cast<int>(engine.node_count()); ++node) {
    if (engine.waiting(node).empty()) continue;

    // Victims are the running occupants only: a hoarding occupant is never
    // preemptable, and leaving it in the list would let the remaining-time
    // filter below test against a victim the scan would have skipped.
    victims_.clear();
    int eligible = 0;
    for (Gid r : engine.running(node)) {
      if (!eligible_victim(engine, r)) continue;
      ++eligible;
      if (engine.state(r) == TaskState::kRunning)
        victims_.push_back(key(engine, r));
    }
    if (victims_.empty()) continue;
    std::sort(victims_.begin(), victims_.end(),
              [this](const Key& a, const Key& b) { return victim_order(a, b); });

    // Snapshot into the reusable buffer: preemption mutates the queue.
    // Every running task is evicted at most once per epoch (victims are
    // consumed), which bounds the per-node work. Failed preempt-in attempts
    // (e.g. unready tasks under these dependency-blind policies) also cost
    // real scheduler time, so they share a per-node budget of 8 attempts
    // per eligible occupant, hoarding ones included.
    int attempt_budget = 8 * eligible;
    const double rate = engine.node_rate(node);
    engine.waiting_snapshot(node, queue_);
    for (Gid w : queue_) {
      if (victims_.empty() || attempt_budget <= 0) break;
      // Only the incoming task of a preemption leaves the queue during a
      // node's scan, and the scan never revisits it.
      assert(queued(engine.state(w)));
      // Cheapest test first. The front victim is tried first, and
      // should_preempt needs w strictly shorter than it: a w that is not
      // can preempt nothing. The remaining time is remaining_time(w)'s
      // value, from the compact queued-remaining array.
      SimTime remaining = 0;
      if (shorter) {
        remaining = Engine::time_at_rate(engine.queued_remaining_mi(w), rate);
        if (remaining >= victims_.front().remaining) continue;
      }
      if (engine.launch_blocked(w)) continue;  // failed input check earlier
      if (!eligible_preemptor(engine, w)) continue;
      const Key waiting =
          shorter ? make_key(engine, w, remaining) : key(engine, w);

      for (auto it = victims_.begin(); it != victims_.end();) {
        const Gid v = it->gid;
        assert(engine.state(v) == TaskState::kRunning);
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

QueueScanPreemption::Key AmoebaPolicy::make_key(const Engine& engine, Gid g,
                                                SimTime remaining) const {
  (void)engine;
  return {.gid = g, .remaining = remaining};
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

QueueScanPreemption::Key NatjamPolicy::make_key(const Engine& engine, Gid g,
                                                SimTime remaining) const {
  return {.gid = g,
          .remaining = remaining,
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
  return kSrptAlpha * t_w + kSrptBeta / t_rem;
}

QueueScanPreemption::Key SrptPolicy::make_key(const Engine& engine, Gid g,
                                              SimTime remaining) const {
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
