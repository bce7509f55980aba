// Dependency-aware task priority (paper §IV-A, Formulas 12 and 13).
//
// A task with no unfinished dependents gets the leaf priority
//   P = omega1 * 1/t_rem + omega2 * t_w + omega3 * t_a        (Formula 13)
// and an internal task aggregates its children recursively
//   P = sum_{children} (gamma + 1) * P_child                  (Formula 12)
// so tasks whose completion unlocks more downstream work — especially at
// higher DAG levels — carry higher priority (the T_11 > T_6 > T_1 ordering
// of Fig. 3).
//
// Priorities keep no state between calls: t^w and t^a move with
// simulated time, so every compute_job / compute_all recomputes from the
// engine's live state.
//
// DspPreemption::on_epoch reads priorities on demand: compute_job runs
// for a job the first time one of its tasks is read in the epoch (each
// node's victims before their sort, a window candidate at its first C1
// test), and compute_all only for P-bar, at the epoch's first PP test.
#pragma once

#include <vector>

#include "core/params.h"
#include "sim/engine.h"

namespace dsp {

/// Computes Formula 12/13 priorities against live engine state.
class DependencyPriority {
 public:
  explicit DependencyPriority(const DspParams& params) : params_(params) {}

  /// Leaf priority (Formula 13) from the task's current remaining time,
  /// waiting time and allowable waiting time. Times in seconds; remaining
  /// time is clamped to >= 1 ms so 1/t_rem stays bounded.
  double leaf_priority(const Engine& engine, Gid g) const;

  /// Min/max priority over live (waiting/running/suspended/hoarding)
  /// tasks plus their count, from which the PP normalizer P-bar is
  /// derived.
  struct Range {
    double min_p = 0.0;
    double max_p = 0.0;
    std::size_t live_tasks = 0;

    /// Mean gap between neighbouring priorities in the sorted order:
    /// exactly (max - min) / (n - 1), no sort required.
    double mean_neighbor_gap() const {
      return live_tasks > 1 ? (max_p - min_p) / static_cast<double>(live_tasks - 1)
                            : 0.0;
    }
  };

  /// Recomputes priorities for every unfinished task of `job` into
  /// `out[gid]` (out must be sized to engine.total_task_count()). One
  /// pass over the job's TaskGraph::topo_order() in reverse (children
  /// before parents), skipping finished tasks; the job's finished tasks
  /// read 0. Returns the job's live Range.
  Range compute_job(const Engine& engine, JobId job,
                    std::vector<double>& out) const;

  /// Computes priorities for all unfinished tasks of all scheduled,
  /// unfinished jobs into `out` and returns the global live Range. `out`
  /// is resized to the gid domain; only the entries of scheduled,
  /// unfinished jobs' tasks are defined afterwards (0 for their finished
  /// tasks). Other entries keep whatever they held.
  Range compute_all(const Engine& engine, std::vector<double>& out) const;

 private:
  const DspParams& params_;
};

}  // namespace dsp
