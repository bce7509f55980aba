#include "dag/task_graph.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "util/log.h"

namespace dsp {

void TaskGraph::add_edge(TaskIndex parent, TaskIndex child) {
  assert(!finalized_);
  assert(parent < n_ && child < n_ && parent != child);
  edges_.emplace_back(parent, child);
}

bool TaskGraph::finalize() {
  assert(!finalized_);
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  // CSR children.
  child_offsets_.assign(n_ + 1, 0);
  parent_offsets_.assign(n_ + 1, 0);
  for (const auto& [p, c] : edges_) {
    ++child_offsets_[p + 1];
    ++parent_offsets_[c + 1];
  }
  for (std::size_t i = 1; i <= n_; ++i) {
    child_offsets_[i] += child_offsets_[i - 1];
    parent_offsets_[i] += parent_offsets_[i - 1];
  }
  child_data_.resize(edges_.size());
  parent_data_.resize(edges_.size());
  {
    std::vector<std::uint32_t> cpos(child_offsets_.begin(), child_offsets_.end() - 1);
    std::vector<std::uint32_t> ppos(parent_offsets_.begin(), parent_offsets_.end() - 1);
    for (const auto& [p, c] : edges_) {
      child_data_[cpos[p]++] = c;
      parent_data_[ppos[c]++] = p;
    }
  }

  // Kahn's algorithm, min-index first for determinism.
  std::vector<std::uint32_t> indegree(n_);
  for (std::size_t t = 0; t < n_; ++t)
    indegree[t] = parent_offsets_[t + 1] - parent_offsets_[t];
  std::priority_queue<TaskIndex, std::vector<TaskIndex>, std::greater<>> ready;
  for (std::size_t t = 0; t < n_; ++t)
    if (indegree[t] == 0) ready.push(static_cast<TaskIndex>(t));

  topo_.clear();
  topo_.reserve(n_);
  level_.assign(n_, 1);
  while (!ready.empty()) {
    const TaskIndex t = ready.top();
    ready.pop();
    topo_.push_back(t);
    for (TaskIndex c : children(t)) {
      level_[c] = std::max(level_[c], level_[t] + 1);
      if (--indegree[c] == 0) ready.push(c);
    }
  }
  if (topo_.size() != n_) {
    DSP_WARN("TaskGraph::finalize: cycle detected (%zu of %zu tasks ordered)",
             topo_.size(), n_);
    topo_.clear();
    return false;
  }

  depth_ = 0;
  roots_.clear();
  leaves_.clear();
  for (std::size_t t = 0; t < n_; ++t) {
    depth_ = std::max(depth_, level_[t]);
    if (parents(static_cast<TaskIndex>(t)).empty())
      roots_.push_back(static_cast<TaskIndex>(t));
    if (children(static_cast<TaskIndex>(t)).empty())
      leaves_.push_back(static_cast<TaskIndex>(t));
  }
  finalized_ = true;
  return true;
}

std::span<const TaskIndex> TaskGraph::parents(TaskIndex t) const {
  assert(t < n_);
  return {parent_data_.data() + parent_offsets_[t],
          parent_data_.data() + parent_offsets_[t + 1]};
}

std::span<const TaskIndex> TaskGraph::children(TaskIndex t) const {
  assert(t < n_);
  return {child_data_.data() + child_offsets_[t],
          child_data_.data() + child_offsets_[t + 1]};
}

std::span<const TaskIndex> TaskGraph::topo_order() const {
  assert(finalized_);
  return topo_;
}

int TaskGraph::level(TaskIndex t) const {
  assert(finalized_ && t < n_);
  return level_[t];
}

bool TaskGraph::depends_on(TaskIndex descendant, TaskIndex ancestor) const {
  assert(finalized_ && descendant < n_ && ancestor < n_);
  if (descendant == ancestor) return false;
  // Level is monotone along edges: an ancestor always has a strictly
  // smaller level, so prune early.
  if (level_[ancestor] >= level_[descendant]) return false;
  // Upward BFS from `descendant`; stamped scratch avoids per-call clears.
  thread_local std::vector<std::uint32_t> stamp;
  thread_local std::uint32_t mark = 0;
  thread_local std::vector<TaskIndex> stack;
  if (stamp.size() < n_) stamp.assign(n_, 0);
  if (++mark == 0) {  // stamp wrap: reset
    std::fill(stamp.begin(), stamp.end(), 0);
    mark = 1;
  }
  stack.assign(1, descendant);
  stamp[descendant] = mark;
  while (!stack.empty()) {
    const TaskIndex u = stack.back();
    stack.pop_back();
    for (TaskIndex p : parents(u)) {
      if (p == ancestor) return true;
      if (stamp[p] != mark && level_[p] > level_[ancestor]) {
        stamp[p] = mark;
        stack.push_back(p);
      }
    }
  }
  return false;
}

std::string Resources::to_string() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{cpu=%.2f mem=%.2f disk=%.2f bw=%.2f}", cpu,
                mem, disk, bw);
  return buf;
}

}  // namespace dsp
