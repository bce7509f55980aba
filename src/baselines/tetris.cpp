#include "baselines/tetris.h"

#include <cassert>

namespace dsp {

namespace {

// Normalizes one dimension by capacity so the score is scale-free; a
// zero-capacity dimension contributes nothing.
double norm(double a, double c) { return c > 0.0 ? a / c : 0.0; }

// The free resources normalized by capacity, the left operand of every
// score on one node.
Resources normalized(const Resources& available, const Resources& capacity) {
  return {norm(available.cpu, capacity.cpu), norm(available.mem, capacity.mem),
          norm(available.disk, capacity.disk), norm(available.bw, capacity.bw)};
}

// The alignment score given the normalized free resources: the one copy
// of the formula, shared by alignment() and select_next().
double score(const Resources& free_norm, const Resources& demand,
             const Resources& capacity) {
  return free_norm.cpu * norm(demand.cpu, capacity.cpu) +
         free_norm.mem * norm(demand.mem, capacity.mem) +
         free_norm.disk * norm(demand.disk, capacity.disk) +
         free_norm.bw * norm(demand.bw, capacity.bw);
}

}  // namespace

double TetrisScheduler::alignment(const Resources& available,
                                  const Resources& demand,
                                  const Resources& capacity) {
  return score(normalized(available, capacity), demand, capacity);
}

std::vector<TaskPlacement> place_least_backlog(const std::vector<JobId>& jobs,
                                               Engine& engine,
                                               bool topological) {
  std::vector<TaskPlacement> placements;
  const std::size_t n_nodes = engine.node_count();

  // Local backlog estimate (MI) seeded from live state.
  std::vector<double> backlog(n_nodes);
  for (std::size_t k = 0; k < n_nodes; ++k)
    backlog[k] = engine.node_backlog_mi(static_cast<int>(k));

  SimTime seq = 0;
  std::vector<TaskIndex> order;
  for (JobId j : jobs) {
    const Job& job = engine.job(j);
    if (topological) {
      const auto topo = job.graph().topo_order();
      order.assign(topo.begin(), topo.end());
    } else {
      order.resize(job.task_count());
      for (TaskIndex t = 0; t < job.task_count(); ++t) order[t] = t;
    }
    for (TaskIndex t : order) {
      const Task& task = job.task(t);
      int best = -1;
      for (std::size_t k = 0; k < n_nodes; ++k) {
        if (!engine.cluster().node(k).capacity.fits(task.demand)) continue;
        if (best < 0 || backlog[k] < backlog[static_cast<std::size_t>(best)])
          best = static_cast<int>(k);
      }
      // The Engine's constructor rejects a task that fits no node.
      assert(best >= 0);
      backlog[static_cast<std::size_t>(best)] += task.size_mi;
      placements.push_back(
          TaskPlacement{engine.gid(j, t), best, engine.now() + seq});
      ++seq;  // 1 us steps preserve order without colliding keys
    }
  }
  return placements;
}

std::vector<TaskPlacement> TetrisScheduler::schedule(
    const std::vector<JobId>& jobs, Engine& engine) {
  // W/SimDep queues precedents ahead of dependents (topological order);
  // W/oDep keeps raw submission order.
  return place_least_backlog(jobs, engine, dep_ == Dependency::kSimple);
}

Gid TetrisScheduler::select_next(int node, Engine& engine,
                                 const std::vector<std::uint8_t>& excluded) {
  const Resources& avail = engine.available(node);
  const Resources& cap =
      engine.cluster().node(static_cast<std::size_t>(node)).capacity;
  // Normalized once per call; score() then returns the same double
  // alignment(avail, demand, cap) does.
  const Resources free_norm = normalized(avail, cap);
  // W/SimDep packs only runnable tasks, so it walks the ready subset;
  // W/oDep's candidates include unready tasks, so it walks the whole queue
  // and skips only those whose launch already failed the input check
  // (launch_blocked reads one state byte and is never true of a ready
  // task).
  const bool simple = dep_ == Dependency::kSimple;
  Gid best = kInvalidGid;
  double best_score = -1.0;
  for (Gid g : simple ? engine.ready(node) : engine.waiting(node)) {
    if (excluded[g]) continue;
    if (!simple && engine.launch_blocked(g)) continue;
    const Resources& demand = engine.task_info(g).demand;
    if (!avail.fits(demand)) continue;
    const double s = score(free_norm, demand, cap);
    if (s > best_score) {
      best_score = s;
      best = g;
    }
  }
  return best;
}

}  // namespace dsp
