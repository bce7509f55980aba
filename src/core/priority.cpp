#include "core/priority.h"

#include <algorithm>

#include "obs/profiler.h"

namespace dsp {

double DependencyPriority::leaf_priority(const Engine& engine, Gid g) const {
  // Accumulated waiting (not just the current stretch): a task keeps the
  // priority it earned by waiting even while running, which stabilizes the
  // C1 comparison between waiting and running tasks.
  const Engine::LeafInputs in = engine.leaf_inputs(g);
  const double t_rem = std::max(0.001, in.t_rem_s);
  return params_.omega1 / t_rem + params_.omega2 * in.t_wait_s +
         params_.omega3 * in.t_allow_s;
}

DependencyPriority::Range DependencyPriority::compute_job(
    const Engine& engine, JobId job, std::vector<double>& out) const {
  const Job& j = engine.job(job);
  const TaskGraph& graph = j.graph();
  const Gid base = engine.gid(job, 0);
  // Zero the job's whole span first: finished tasks report priority 0
  // without being walked.
  std::fill(out.begin() + base, out.begin() + base + j.task_count(), 0.0);

  Range range;
  bool first = true;
  const double g1 = params_.gamma + 1.0;
  // Live tasks in reverse topological order: every child's priority is
  // ready before its parents aggregate it; finished tasks are skipped
  // wholesale.
  for (const Gid g : engine.live_reverse_topo(job)) {
    const auto t = static_cast<TaskIndex>(g - base);
    double sum = 0.0;
    bool has_live_child = false;
    for (TaskIndex c : graph.children(t)) {
      const Gid cg = base + c;
      if (engine.state(cg) == TaskState::kFinished) continue;
      has_live_child = true;
      sum += g1 * out[cg];
    }
    const double p = has_live_child ? sum : leaf_priority(engine, g);
    out[g] = p;
    if (engine.state(g) == TaskState::kUnscheduled) continue;
    if (first || p < range.min_p) range.min_p = p;
    if (first || p > range.max_p) range.max_p = p;
    first = false;
    ++range.live_tasks;
  }
  return range;
}

DependencyPriority::Range DependencyPriority::compute_all(
    const Engine& engine, std::vector<double>& out) const {
  DSP_PROFILE("priority.compute_all_s");
  const std::size_t jobs = engine.job_count();
  const std::size_t total = engine.total_task_count();
  if (cache_engine_ != &engine || out.size() != total ||
      job_version_.size() != jobs) {
    out.assign(total, 0.0);
    job_version_.assign(jobs, 0);  // engine versions start at 1: all dirty
    job_range_.assign(jobs, Range{});
    cache_now_ = kNoTime;
    cache_engine_ = &engine;
  }

  // A job is clean when its version is unchanged AND simulated time has
  // not advanced — t^w and t^a move with the clock even without events.
  // Dirty jobs recompute and every live job merges in ascending job
  // order.
  const SimTime now = engine.now();
  const bool time_advanced = now != cache_now_;
  Range range;
  bool first = true;
  for (JobId j = 0; j < jobs; ++j) {
    if (!engine.job_scheduled(j) || engine.job_finished(j)) {
      if (job_range_[j].live_tasks != 0) {
        // The job completed since the last call: zero its stale values.
        const Gid base = engine.gid(j, 0);
        std::fill(out.begin() + base,
                  out.begin() + base + engine.job(j).task_count(), 0.0);
        job_range_[j] = Range{};
        job_version_[j] = engine.priority_version(j);
      }
      continue;
    }
    if (time_advanced || job_version_[j] != engine.priority_version(j)) {
      job_range_[j] = compute_job(engine, j, out);
      job_version_[j] = engine.priority_version(j);
    }
    const Range& r = job_range_[j];
    if (r.live_tasks == 0) continue;
    if (first || r.min_p < range.min_p) range.min_p = r.min_p;
    if (first || r.max_p > range.max_p) range.max_p = r.max_p;
    first = false;
    range.live_tasks += r.live_tasks;
  }
  cache_now_ = now;
  return range;
}

}  // namespace dsp
