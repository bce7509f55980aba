#include "core/preemption.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/profiler.h"
#include "util/log.h"

namespace dsp {

void DspPreemption::collect_preemptable(const Engine& engine, int node,
                                        std::vector<Gid>& out) {
  // Preemptable running tasks: suspending them for up to an epoch still
  // leaves enough allowable waiting time to meet their deadline.
  for (Gid r : engine.running(node))
    if (engine.allowable_waiting_time(r) > engine.params().epoch)
      out.push_back(r);
}

void DspPreemption::on_epoch(Engine& engine) {
  if (params_.straggler_mitigation) mitigate_stragglers(engine);

  const std::size_t nodes = engine.node_count();
  victims_.resize(nodes);
  for (std::size_t k = 0; k < nodes; ++k) {
    victims_[k].clear();
    const auto node = static_cast<int>(k);
    if (!engine.waiting(node).empty())
      collect_preemptable(engine, node, victims_[k]);
  }

  // Algorithm 1 reads priorities only to rank waiting tasks against
  // preemptable victims, so an epoch without one makes no decision and
  // skips Formula 12/13 entirely (adapt_delta(0, 0) is a no-op too).
  if (std::all_of(victims_.begin(), victims_.end(),
                  [](const std::vector<Gid>& v) { return v.empty(); }))
    return;
  // A new epoch: every job's priorities are stale until read again.
  ++epoch_;
  all_computed_ = false;
  prio_.resize(engine.total_task_count());
  job_epoch_.resize(engine.job_count(), 0);

  std::uint64_t considered = 0, preempted = 0;
  for (std::size_t k = 0; k < nodes; ++k) {
    std::vector<Gid>& preemptable = victims_[k];
    if (preemptable.empty()) continue;
    // Ascending (priority, gid). Recomputing a job mid-epoch reproduces
    // its epoch-start values, so a node's order does not depend on the
    // passes already run for earlier nodes.
    for (Gid v : preemptable) compute_job_once(engine, engine.job_of(v));
    std::sort(preemptable.begin(), preemptable.end(), [this](Gid a, Gid b) {
      assert(a < prio_.size() && b < prio_.size());
      return prio_[a] != prio_[b] ? prio_[a] < prio_[b] : a < b;
    });
    const auto node = static_cast<int>(k);
    urgent_pass(engine, node, preemptable);
    const auto [c, p] = window_pass(engine, node, preemptable);
    considered += c;
    preempted += p;
  }
  if (params_.adaptive_delta) {
    const double before = delta_;
    adapt_delta(considered, preempted);
    // adapt_delta either leaves delta_ untouched or assigns a freshly
    // computed value; exact inequality is the intended "did it change"
    // test, not a tolerance question.
    if (delta_ != before)
      engine.emit_event({.kind = obs::EventKind::kDeltaAdapt,
                         .a = before,
                         .b = delta_});
  }
}

void DspPreemption::compute_job_once(const Engine& engine, JobId j) {
  if (all_computed_ || job_epoch_[j] == epoch_) return;
  job_epoch_[j] = epoch_;
  DSP_PROFILE("priority.job_s");
  priority_.compute_job(engine, j, prio_);
}

double DspPreemption::mean_gap(const Engine& engine) {
  if (!all_computed_) {
    const auto range = priority_.compute_all(engine, prio_);
    // Every victim is a running task, which compute_all counts as live.
    assert(range.live_tasks > 0);
    pbar_ = range.mean_neighbor_gap();
    all_computed_ = true;
  }
  return pbar_;
}

obs::PreemptDecision DspPreemption::make_decision(int node, Gid w) const {
  obs::PreemptDecision d;
  d.node = node;
  d.candidate = w;
  d.rho = params_.rho;
  d.pp = params_.normalized_pp;
  return d;
}

void DspPreemption::mark_fired(const Engine& engine, obs::PreemptDecision& d,
                               Gid v) {
  d.outcome = obs::PreemptOutcome::kFired;
  d.victim = v;
  d.victim_priority = prio_at(engine, v);
  if (engine.event_log() == nullptr) return;
  const double pbar = mean_gap(engine);
  if (pbar > 0.0)
    d.normalized_gap = (prio_at(engine, d.candidate) - d.victim_priority) / pbar;
}

void DspPreemption::urgent_pass(Engine& engine, int node,
                                std::vector<Gid>& preemptable) {
  // DSP never launches unready tasks, so only the ready subset is
  // scanned. Snapshot it into the reusable buffer: try_preempt mutates the
  // queue, and a fresh vector per node per epoch is allocator churn.
  // Readiness cannot change within an epoch (no task finishes), so the
  // snapshot holds exactly the ready tasks of a waiting-queue snapshot.
  const std::vector<Gid>& ready = engine.ready(node);
  ready_scratch_.assign(ready.begin(), ready.end());
  for (Gid w : ready_scratch_) {
    // try_preempt takes only the incoming task out of the queue, and the
    // scan never revisits it.
    assert(queued(engine.state(w)));
    // Urgent: the task has waited beyond tau, or its deadline is close
    // (t^a <= epsilon) but still salvageable (t^a >= 0) — preempting for a
    // task that can no longer meet its deadline buys nothing. Both tests
    // are pure; the cheap tau test goes first and skips computing t^a.
    bool urgent = engine.waiting_time(w) >= kTau;
    if (!urgent) {
      const SimTime t_a = engine.allowable_waiting_time(w);
      urgent = t_a <= params_.epsilon && t_a >= 0;
    }
    if (!urgent) continue;
    obs::PreemptDecision d = make_decision(node, w);
    d.urgent = true;
    // Urgency ignores C1 and PP, so only the event stream reads the
    // candidate's priority.
    if (engine.event_log() != nullptr)
      d.candidate_priority = prio_at(engine, w);
    bool dep_blocked = false;
    // Lowest-priority victim the urgent task does not depend on (C2),
    // ignoring C1 and the PP gap.
    for (auto it = preemptable.begin(); it != preemptable.end(); ++it) {
      const Gid v = *it;
      if (engine.state(v) != TaskState::kRunning) continue;
      if (engine.depends_on(w, v)) {
        dep_blocked = true;
        continue;
      }
      const PreemptResult res = engine.try_preempt(node, v, w);
      if (res == PreemptResult::kOk) {
        mark_fired(engine, d, v);
        preemptable.erase(it);
        break;
      }
      if (res == PreemptResult::kIncomingNotReady) break;  // defensive
      // kNoResources: try the next victim.
    }
    if (d.outcome != obs::PreemptOutcome::kFired)
      d.outcome = dep_blocked ? obs::PreemptOutcome::kBlockedByDependency
                              : obs::PreemptOutcome::kNoVictim;
    engine.record_preempt_decision(d);
  }
}

std::pair<std::uint64_t, std::uint64_t> DspPreemption::window_pass(
    Engine& engine, int node, std::vector<Gid>& preemptable) {
  // The window is the first ceil(delta * |queue|) waiting tasks; only its
  // ready members are candidates. Snapshot them (the prefix of the ready
  // subset keyed at or before the window's last entry) into the reusable
  // buffer, since try_preempt mutates the queue.
  const auto window = static_cast<std::size_t>(std::ceil(
      delta_ * static_cast<double>(engine.waiting(node).size())));
  const std::vector<Gid>& ready = engine.ready(node);
  ready_scratch_.assign(
      ready.begin(),
      ready.begin() + static_cast<std::ptrdiff_t>(
                          engine.ready_within(node, window)));
  std::uint64_t considered = 0, preempted = 0;

  for (Gid w : ready_scratch_) {
    assert(queued(engine.state(w)));  // as in urgent_pass
    ++considered;

    obs::PreemptDecision d = make_decision(node, w);
    // C1 below reads the candidate's priority whenever a victim is left;
    // otherwise only the event stream does.
    if (!preemptable.empty() || engine.event_log() != nullptr)
      d.candidate_priority = prio_at(engine, w);
    bool dep_blocked = false;
    // Victims in ascending priority: the first one passing all conditions
    // is the cheapest to displace.
    for (auto it = preemptable.begin(); it != preemptable.end();) {
      const Gid v = *it;
      if (engine.state(v) != TaskState::kRunning) {
        it = preemptable.erase(it);  // finished/preempted since sorting
        continue;
      }
      // C1: higher priority required. Victims are sorted ascending, so no
      // later victim can satisfy C1 either.
      if (d.candidate_priority <= prio_at(engine, v)) break;
      // C2: never preempt a task the waiting task depends on.
      if (engine.depends_on(w, v)) {
        dep_blocked = true;
        ++it;
        continue;
      }
      // PP: the priority gap must exceed rho times the global mean
      // neighbor gap, or the context-switch cost outweighs the gain.
      // P-bar is computed at the first PP test of the epoch.
      if (params_.normalized_pp) {
        const double pbar = mean_gap(engine);
        const double gap = d.candidate_priority - prio_at(engine, v);
        if (pbar > 0.0 && gap / pbar <= params_.rho) {
          d.outcome = obs::PreemptOutcome::kSuppressedPP;
          d.victim = v;
          d.victim_priority = prio_at(engine, v);
          d.normalized_gap = gap / pbar;
          break;  // later victims have higher priority -> smaller gaps
        }
      }
      const PreemptResult res = engine.try_preempt(node, v, w);
      if (res == PreemptResult::kOk) {
        ++preempted;
        mark_fired(engine, d, v);
        preemptable.erase(it);
        break;
      }
      if (res == PreemptResult::kNoResources) {
        ++it;  // try a higher-priority victim with a larger reservation
        continue;
      }
      break;  // not-ready/invalid: stop trying for this waiting task
    }
    if (d.outcome != obs::PreemptOutcome::kFired &&
        d.outcome != obs::PreemptOutcome::kSuppressedPP) {
      d.outcome = dep_blocked ? obs::PreemptOutcome::kBlockedByDependency
                              : obs::PreemptOutcome::kNoVictim;
    }
    engine.record_preempt_decision(d);
  }
  return {considered, preempted};
}

void DspPreemption::mitigate_stragglers(Engine& engine) const {
  // Healthy destination: the fastest up node at nominal speed with the
  // smallest backlog. Recomputed per migration batch (cheap: node counts
  // are small).
  auto pick_destination = [&engine](Gid g) {
    int best = -1;
    double best_backlog = 0.0;
    for (int k = 0; k < static_cast<int>(engine.node_count()); ++k) {
      if (!engine.node_up(k) || engine.node_speed_factor(k) < 1.0) continue;
      if (!engine.cluster()
               .node(static_cast<std::size_t>(k))
               .capacity.fits(engine.task_info(g).demand))
        continue;
      if (best < 0 || engine.node_backlog_mi(k) < best_backlog) {
        best = k;
        best_backlog = engine.node_backlog_mi(k);
      }
    }
    return best;
  };

  // Expected completion of `g` if (re)started on `node` behind its
  // current backlog.
  auto estimate_s = [&engine](Gid g, int node) {
    const double rate = engine.node_rate(node);
    const int slots =
        engine.cluster().node(static_cast<std::size_t>(node)).slots;
    const double queue_s =
        engine.node_backlog_mi(node) / (rate * std::max(1, slots));
    return queue_s + engine.remaining_mi(g) / rate;
  };

  for (int node = 0; node < static_cast<int>(engine.node_count()); ++node) {
    if (!engine.node_up(node)) continue;
    if (engine.node_speed_factor(node) >= kStragglerThreshold) continue;
    // Vacate only when it pays: a migrated task must be expected to finish
    // meaningfully sooner on the destination than if left crawling here —
    // under cluster-wide saturation every node is equally backlogged and
    // migration would just add checkpoint/requeue overhead.
    const std::vector<Gid> running = engine.running(node);
    for (Gid g : running) {
      if (engine.state(g) != TaskState::kRunning) continue;
      const int dst = pick_destination(g);
      if (dst < 0) continue;
      const double stay_s =
          engine.remaining_mi(g) / engine.node_rate(node);
      if (estimate_s(g, dst) < 0.7 * stay_s) {
        engine.evict_running(g);
        engine.migrate_task(g, dst);
      }
    }
    const std::vector<Gid> waiting = engine.waiting(node);
    for (Gid g : waiting) {
      // A migration starts tasks only on its healthy destination.
      assert(queued(engine.state(g)));
      const int dst = pick_destination(g);
      if (dst < 0) continue;
      if (estimate_s(g, dst) < 0.7 * estimate_s(g, node))
        engine.migrate_task(g, dst);
    }
  }
}

void DspPreemption::adapt_delta(std::uint64_t considered,
                                std::uint64_t preempted) {
  if (considered == 0) return;
  const double fraction =
      static_cast<double>(preempted) / static_cast<double>(considered);
  if (fraction > kDeltaGrowAbove) {
    delta_ = std::min(kDeltaMax, delta_ * 1.2);
  } else if (fraction < kDeltaShrinkBelow) {
    delta_ = std::max(kDeltaMin, delta_ * 0.85);
  }
}

}  // namespace dsp
