// ClusterState: the simulation kernel's mutable view of the cluster.
//
// One of the four layers of the simulation kernel (see DESIGN.md §16).
// ClusterState owns per-node slot/resource occupancy, the planned-start
// ordered waiting queues and their ready subsets, the running/hoarding
// occupant lists and the liveness/straggler factors. It is mutable only
// through the kernel: the Engine orchestrator (a friend) drives every
// transition, while policies see it exclusively through const accessors
// re-exported by the Engine read API.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "dag/task.h"
#include "sim/cluster.h"
#include "sim/task_runtime.h"
#include "sim/types.h"

namespace dsp {

class Engine;

/// Per-node mutable cluster state. Initialized from a ClusterSpec (which
/// must outlive it — effective rates read through the spec).
class ClusterState {
 public:
  struct Node {
    std::vector<Gid> waiting;  // sorted by (planned_start, gid)
    std::vector<Gid> ready;    // the ready members of `waiting`, same order
    std::vector<Gid> running;  // running and hoarding occupants
    Resources available;
    int free_slots = 0;
    double backlog_mi = 0.0;
    double busy_us = 0.0;  // accumulated slot-busy microseconds
    bool up = true;
    double speed_factor = 1.0;
  };

  std::size_t size() const { return nodes_.size(); }
  bool in_range(int node) const {
    return node >= 0 && static_cast<std::size_t>(node) < nodes_.size();
  }
  const Node& node(int k) const {
    assert(in_range(k));
    return nodes_[static_cast<std::size_t>(k)];
  }
  /// Effective rate of `k`: nominal g(k) scaled by the straggler factor.
  double rate(int k) const {
    assert(in_range(k));
    return spec_->rate(static_cast<std::size_t>(k)) *
           nodes_[static_cast<std::size_t>(k)].speed_factor;
  }
  /// Number of ready entries among the first `window` entries of `node`'s
  /// waiting queue: the ready tasks keyed at or before waiting[window-1].
  std::size_t ready_within(int node, std::size_t window,
                           const TaskRuntime& tasks) const;

 private:
  // Mutation is the kernel's privilege: only the Engine orchestrator may
  // move tasks between queues or touch slot accounting.
  friend class Engine;

  void init(const ClusterSpec& spec);
  Node& node_mut(int k) {
    assert(in_range(k));
    return nodes_[static_cast<std::size_t>(k)];
  }
  /// Inserts `g` into `node`'s waiting queue at its (planned_start, gid)
  /// position, and into the ready subset when `g` is ready. The caller
  /// maintains waiting clocks.
  void insert_waiting(int node, Gid g, const TaskRuntime& tasks);
  /// Removes `g` from `node`'s waiting queue (must be present) and from
  /// the ready subset.
  void remove_waiting(int node, Gid g, const TaskRuntime& tasks);
  /// `g`, queued on `node`, just became ready: adds it to the ready subset.
  void mark_ready(int node, Gid g, const TaskRuntime& tasks);

  const ClusterSpec* spec_ = nullptr;
  std::vector<Node> nodes_;
};

}  // namespace dsp
