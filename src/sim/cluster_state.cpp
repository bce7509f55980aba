#include "sim/cluster_state.h"

#include <algorithm>
#include <utility>

namespace dsp {

namespace {

using QueueKey = std::pair<SimTime, Gid>;

QueueKey queue_key(Gid g, const TaskRuntime& tasks) {
  return {tasks.rt(g).planned_start, g};
}

/// First position in `queue` (sorted by queue_key) whose key is not
/// below `key`.
template <typename Queue>
auto queue_lower_bound(Queue& queue, const QueueKey& key,
                       const TaskRuntime& tasks) {
  return std::lower_bound(queue.begin(), queue.end(), key,
                          [&tasks](Gid a, const QueueKey& k) {
                            return queue_key(a, tasks) < k;
                          });
}

}  // namespace

void ClusterState::init(const ClusterSpec& spec) {
  spec_ = &spec;
  nodes_.assign(spec.size(), Node{});
  for (std::size_t k = 0; k < spec.size(); ++k) {
    nodes_[k].available = spec.node(k).capacity;
    nodes_[k].free_slots = spec.node(k).slots;
  }
}

std::size_t ClusterState::ready_within(int node, std::size_t window,
                                       const TaskRuntime& tasks) const {
  const Node& n = this->node(node);
  if (window >= n.waiting.size()) return n.ready.size();
  if (window == 0) return 0;
  const QueueKey last = queue_key(n.waiting[window - 1], tasks);
  const auto end = std::upper_bound(
      n.ready.begin(), n.ready.end(), last,
      [&tasks](const QueueKey& k, Gid a) { return k < queue_key(a, tasks); });
  return static_cast<std::size_t>(end - n.ready.begin());
}

void ClusterState::insert_waiting(int node, Gid g, const TaskRuntime& tasks) {
  Node& n = node_mut(node);
  const QueueKey key = queue_key(g, tasks);
  n.waiting.insert(queue_lower_bound(n.waiting, key, tasks), g);
  if (tasks.ready(g)) n.ready.insert(queue_lower_bound(n.ready, key, tasks), g);
}

void ClusterState::remove_waiting(int node, Gid g, const TaskRuntime& tasks) {
  Node& n = node_mut(node);
  const QueueKey key = queue_key(g, tasks);
  auto it = queue_lower_bound(n.waiting, key, tasks);
  assert(it != n.waiting.end() && *it == g);
  n.waiting.erase(it);
  if (!tasks.ready(g)) return;  // a queued task is in `ready` iff ready
  it = queue_lower_bound(n.ready, key, tasks);
  assert(it != n.ready.end() && *it == g);
  n.ready.erase(it);
}

void ClusterState::mark_ready(int node, Gid g, const TaskRuntime& tasks) {
  Node& n = node_mut(node);
  const auto it = queue_lower_bound(n.ready, queue_key(g, tasks), tasks);
  assert(it == n.ready.end() || *it != g);
  n.ready.insert(it, g);
}

}  // namespace dsp
