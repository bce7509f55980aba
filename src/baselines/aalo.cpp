#include "baselines/aalo.h"

#include "util/log.h"

namespace dsp {

int AaloScheduler::queue_level(double serviced_mi) const {
  double threshold = options_.first_threshold_mi;
  for (int level = 0; level < options_.queue_count - 1; ++level) {
    if (serviced_mi < threshold) return level;
    threshold *= options_.threshold_factor;
  }
  return options_.queue_count - 1;
}

std::vector<TaskPlacement> AaloScheduler::schedule(
    const std::vector<JobId>& jobs, Engine& engine) {
  std::vector<TaskPlacement> placements;
  const std::size_t n_nodes = engine.node_count();
  std::vector<double> backlog(n_nodes);
  for (std::size_t k = 0; k < n_nodes; ++k)
    backlog[k] = engine.node_backlog_mi(static_cast<int>(k));

  SimTime seq = 0;
  for (JobId j : jobs) {
    const Job& job = engine.job(j);
    // Queue each job's tasks in topological order (all flows of a coflow
    // share a queue; precedence inside the job is preserved FIFO).
    for (TaskIndex t : job.graph().topo_order()) {
      const Task& task = job.task(t);
      int best = -1;
      for (std::size_t k = 0; k < n_nodes; ++k) {
        if (!engine.cluster().node(k).capacity.fits(task.demand)) continue;
        if (best < 0 || backlog[k] < backlog[static_cast<std::size_t>(best)])
          best = static_cast<int>(k);
      }
      if (best < 0) {
        DSP_ERROR("aalo: task %u fits no node", engine.gid(j, t));
        continue;
      }
      backlog[static_cast<std::size_t>(best)] += task.size_mi;
      placements.push_back(
          TaskPlacement{engine.gid(j, t), best, engine.now() + seq});
      ++seq;
    }
  }
  return placements;
}

Gid AaloScheduler::select_next(int node, Engine& engine,
                               const std::vector<std::uint8_t>& excluded) {
  const Resources& avail = engine.available(node);
  Gid best = kInvalidGid;
  int best_level = options_.queue_count;
  // The ready subset is already FIFO (planned_start order), so the first
  // qualifying task at the lowest level wins.
  for (Gid g : engine.ready(node)) {
    if (excluded[g]) continue;
    if (!avail.fits(engine.task_info(g).demand)) continue;
    const int level = queue_level(engine.job_serviced_mi(engine.job_of(g)));
    if (level < best_level) {
      best_level = level;
      best = g;
      if (level == 0) break;  // cannot do better
    }
  }
  return best;
}

}  // namespace dsp
