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
  // Reverse topological order: every child's priority is ready before its
  // parents aggregate it. Finished tasks are skipped.
  const auto topo = graph.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskIndex t = *it;
    const Gid g = base + t;
    const TaskState state = engine.state(g);
    if (state == TaskState::kFinished) continue;
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
    if (state == TaskState::kUnscheduled) continue;
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
  out.resize(engine.total_task_count());

  // Every scheduled, unfinished job recomputes and merges its Range in
  // ascending job order.
  Range range;
  bool first = true;
  for (JobId j = 0; j < engine.job_count(); ++j) {
    if (!engine.job_scheduled(j) || engine.job_finished(j)) continue;
    const Range r = compute_job(engine, j, out);
    if (r.live_tasks == 0) continue;
    if (first || r.min_p < range.min_p) range.min_p = r.min_p;
    if (first || r.max_p > range.max_p) range.max_p = r.max_p;
    first = false;
    range.live_tasks += r.live_tasks;
  }
  return range;
}

}  // namespace dsp
