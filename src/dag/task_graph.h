// Dependency DAG over the tasks of one job.
//
// Edges point parent -> child: the child cannot start until every parent has
// finished (paper §III's chain model generalized to the DAG of Fig. 1/3).
// The graph is built incrementally, then `finalize()` computes the CSR
// adjacency, a topological order and 1-based levels; most queries require a
// finalized graph.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dag/task.h"

namespace dsp {

/// A directed acyclic dependency graph over task indices [0, size).
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Creates a graph over `n` tasks with no edges.
  explicit TaskGraph(std::size_t n) : n_(n) {}

  /// Number of tasks.
  std::size_t size() const { return n_; }

  /// Number of dependency edges.
  std::size_t edge_count() const { return edges_.size(); }

  /// Adds edge parent -> child. Must be called before finalize().
  /// Duplicate edges are tolerated and deduplicated by finalize().
  void add_edge(TaskIndex parent, TaskIndex child);

  /// Builds adjacency, topological order and levels.
  /// Returns false (leaving the graph unfinalized) if a cycle exists.
  bool finalize();

  /// True once finalize() succeeded.
  bool finalized() const { return finalized_; }

  /// Direct parents of `t` (tasks it depends on).
  std::span<const TaskIndex> parents(TaskIndex t) const;

  /// Direct children of `t` (tasks depending on it).
  std::span<const TaskIndex> children(TaskIndex t) const;

  /// A topological order (parents before children). Deterministic:
  /// Kahn's algorithm with smallest-index-first tie breaking.
  std::span<const TaskIndex> topo_order() const;

  /// 1-based level of `t`: roots are level 1; otherwise
  /// 1 + max(level of parents). This is the level index of §IV-B's
  /// per-level deadline computation.
  int level(TaskIndex t) const;

  /// Total number of levels L (0 for an empty graph).
  int depth() const { return depth_; }

  /// Tasks with no parents.
  std::span<const TaskIndex> roots() const { return roots_; }

  /// Tasks with no children.
  std::span<const TaskIndex> leaves() const { return leaves_; }

  /// True if `ancestor` is a (transitive) ancestor of `descendant`,
  /// i.e. `descendant` depends on `ancestor`. Condition C2 of Algorithm 1
  /// queries this between a waiting and a running task of the same job.
  bool depends_on(TaskIndex descendant, TaskIndex ancestor) const;

 private:
  std::size_t n_ = 0;
  bool finalized_ = false;
  std::vector<std::pair<TaskIndex, TaskIndex>> edges_;  // staged until finalize

  // CSR adjacency (valid after finalize).
  std::vector<std::uint32_t> child_offsets_, parent_offsets_;
  std::vector<TaskIndex> child_data_, parent_data_;
  std::vector<TaskIndex> topo_;
  std::vector<int> level_;
  std::vector<TaskIndex> roots_, leaves_;
  int depth_ = 0;
};

}  // namespace dsp
