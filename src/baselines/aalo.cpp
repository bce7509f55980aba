#include "baselines/aalo.h"

#include "baselines/tetris.h"

namespace dsp {

int AaloScheduler::queue_level(double serviced_mi) {
  double threshold = kAaloFirstThresholdMi;
  for (int level = 0; level < kAaloQueueCount - 1; ++level) {
    if (serviced_mi < threshold) return level;
    threshold *= kAaloThresholdFactor;
  }
  return kAaloQueueCount - 1;
}

std::vector<TaskPlacement> AaloScheduler::schedule(
    const std::vector<JobId>& jobs, Engine& engine) {
  // Each job's tasks queue in topological order (all flows of a coflow
  // share a queue; precedence inside the job is preserved FIFO).
  return place_least_backlog(jobs, engine, /*topological=*/true);
}

Gid AaloScheduler::select_next(int node, Engine& engine,
                               const std::vector<std::uint8_t>& excluded) {
  const Resources& avail = engine.available(node);
  Gid best = kInvalidGid;
  int best_level = kAaloQueueCount;
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
