#include "core/dsp_scheduler.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <queue>

namespace dsp {

std::vector<double> DspScheduler::dependency_weights(const Job& job,
                                                     double gamma) {
  const TaskGraph& graph = job.graph();
  std::vector<double> weight(job.task_count(), 1.0);
  const auto topo = graph.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskIndex t = *it;
    double w = 1.0;
    for (TaskIndex c : graph.children(t)) w += (gamma + 1.0) * weight[c];
    weight[t] = w;
  }
  return weight;
}

std::vector<TaskPlacement> DspScheduler::schedule(
    const std::vector<JobId>& jobs, Engine& engine) {
  std::vector<TaskPlacement> placements = schedule_heuristic(jobs, engine);
  if (engine.event_log() != nullptr) {
    // Flight recorder: one kJobPlanned per scheduled job, with the number
    // of its tasks this round actually placed in the `a` payload.
    std::map<JobId, double> placed;
    for (const TaskPlacement& p : placements) ++placed[engine.job_of(p.task)];
    for (JobId j : jobs) {
      const auto it = placed.find(j);
      engine.emit_event({.kind = obs::EventKind::kJobPlanned,
                         .job = j,
                         .a = it == placed.end() ? 0.0 : it->second});
    }
  }
  return placements;
}

std::vector<TaskPlacement> DspScheduler::schedule_heuristic(
    const std::vector<JobId>& jobs, Engine& engine) const {
  const std::size_t n_nodes = engine.node_count();
  const SimTime now = engine.now();

  // Per-node virtual slot availability, seeded with the node's current
  // backlog spread across its slots (an estimate of when already-assigned
  // work drains). Each node's rate and earliest-free slot (value and first
  // index, as std::min_element finds them) are cached for the round: a
  // placement fills one slot, so only the chosen node's minimum moves.
  std::vector<std::vector<double>> slot_free(n_nodes);
  std::vector<double> rate(n_nodes);
  std::vector<double> earliest(n_nodes);
  std::vector<std::size_t> earliest_slot(n_nodes);
  auto refresh_earliest = [&](std::size_t k) {
    const auto it = std::min_element(slot_free[k].begin(), slot_free[k].end());
    earliest[k] = *it;
    earliest_slot[k] = static_cast<std::size_t>(it - slot_free[k].begin());
  };
  for (std::size_t k = 0; k < n_nodes; ++k) {
    const int slots = engine.cluster().node(k).slots;
    rate[k] = engine.node_rate(static_cast<int>(k));
    const double backlog_s = engine.node_backlog_mi(static_cast<int>(k)) /
                             rate[k] / std::max(1, slots);
    slot_free[k].assign(static_cast<std::size_t>(slots),
                        to_seconds(now) + backlog_s);
    refresh_earliest(k);
  }

  // Rank = (downstream weight desc, deadline asc, gid asc). Tasks become
  // eligible once all parents are placed; their start estimate then
  // respects the parents' estimated finishes (dependency awareness both in
  // ordering and in timing).
  struct Item {
    double weight;
    SimTime deadline;
    Gid gid;
  };
  struct ItemLess {
    bool operator()(const Item& a, const Item& b) const {
      if (a.weight != b.weight) return a.weight < b.weight;  // max-heap: larger first
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.gid > b.gid;
    }
  };
  std::priority_queue<Item, std::vector<Item>, ItemLess> ready;

  // Per-task bookkeeping (local maps keyed by gid ranges of pending jobs).
  std::vector<TaskPlacement> placements;
  std::size_t total_tasks = 0;
  for (JobId j : jobs) total_tasks += engine.job(j).task_count();
  placements.reserve(total_tasks);

  struct TaskAux {
    double finish_est = 0.0;
    std::uint32_t unplaced_parents = 0;
    double weight = 0.0;
  };
  // Map job -> base offset into a flat aux array (gids of one job are
  // contiguous, so job base + task index addresses aux densely).
  std::vector<TaskAux> aux(total_tasks);
  std::vector<std::pair<JobId, std::size_t>> job_base;
  {
    std::size_t base = 0;
    for (JobId j : jobs) {
      job_base.emplace_back(j, base);
      base += engine.job(j).task_count();
    }
  }
  auto base_of = [&](JobId j) {
    for (const auto& [job, base] : job_base)
      if (job == j) return base;
    assert(false && "job not in pending set");
    return std::size_t{0};
  };

  for (JobId j : jobs) {
    const Job& job = engine.job(j);
    const auto weights = dependency_weights(job, params_.gamma);
    const std::size_t base = base_of(j);
    for (TaskIndex t = 0; t < job.task_count(); ++t) {
      aux[base + t].unplaced_parents =
          static_cast<std::uint32_t>(job.graph().parents(t).size());
      aux[base + t].weight = weights[t];
      if (aux[base + t].unplaced_parents == 0)
        ready.push({weights[t], job.task(t).deadline, engine.gid(j, t)});
    }
  }

  while (!ready.empty()) {
    const Item item = ready.top();
    ready.pop();
    const JobId j = engine.job_of(item.gid);
    const TaskIndex t = engine.index_of(item.gid);
    const Job& job = engine.job(j);
    const std::size_t base = base_of(j);
    const Task& task = job.task(t);

    // Earliest start from dependency estimates.
    double dep_ready_s = to_seconds(now);
    for (TaskIndex p : job.graph().parents(t))
      dep_ready_s = std::max(dep_ready_s, aux[base + p].finish_est);

    // Pick the node minimizing estimated finish time.
    int best_node = -1;
    std::size_t best_slot = 0;
    double best_eft = 0.0, best_est = 0.0;
    for (std::size_t k = 0; k < n_nodes; ++k) {
      if (!engine.cluster().node(k).capacity.fits(task.demand)) continue;
      const double est = std::max(dep_ready_s, earliest[k]);
      double eft = est + task.size_mi / rate[k];
      if (params_.locality_aware)
        eft += to_seconds(engine.transfer_time(item.gid, static_cast<int>(k)));
      if (best_node < 0 || eft < best_eft) {
        best_node = static_cast<int>(k);
        best_slot = earliest_slot[k];
        best_eft = eft;
        best_est = est;
      }
    }
    // The Engine's constructor rejects a task that fits no node.
    assert(best_node >= 0);
    slot_free[static_cast<std::size_t>(best_node)][best_slot] = best_eft;
    refresh_earliest(static_cast<std::size_t>(best_node));
    aux[base + t].finish_est = best_eft;
    placements.push_back(TaskPlacement{item.gid, best_node, from_seconds(best_est)});

    for (TaskIndex c : job.graph().children(t)) {
      TaskAux& ca = aux[base + c];
      assert(ca.unplaced_parents > 0);
      if (--ca.unplaced_parents == 0)
        ready.push({ca.weight, job.task(c).deadline, engine.gid(j, c)});
    }
  }
  return placements;
}

}  // namespace dsp
