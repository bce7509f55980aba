// Tetris baseline (Grandl et al., SIGCOMM 2014): multi-resource packing.
//
// When a machine frees resources, Tetris launches the waiting task with the
// highest *alignment score* — the dot product between the machine's
// available resource vector and the task's peak demand — packing
// complementary tasks together to maximize utilization.
//
// Two variants, matching the paper's §V comparison:
//  - TetrisW/oDep ("without any dependency consideration"): packs purely by
//    score; it may select tasks whose precedents have not finished, which
//    the engine rejects and counts as disorders.
//  - TetrisW/SimDep ("simple dependency-aware"): precedent tasks complete
//    before dependent tasks start — i.e. the packer only considers
//    currently-runnable tasks.
#pragma once

#include "sim/engine.h"
#include "sim/policy.h"

namespace dsp {

/// The schedule() of Tetris and Aalo, which act at dispatch: each task, in
/// job order and within a job in topological (`topological`) or index
/// order, goes to the least-backlogged node that fits it, at planned
/// starts 1 us apart so the queues keep that order.
std::vector<TaskPlacement> place_least_backlog(const std::vector<JobId>& jobs,
                                               Engine& engine,
                                               bool topological);

/// Tetris packing scheduler.
class TetrisScheduler : public Scheduler {
 public:
  enum class Dependency {
    kNone,    ///< TetrisW/oDep
    kSimple,  ///< TetrisW/SimDep
  };

  explicit TetrisScheduler(Dependency dep) : dep_(dep) {}

  const char* name() const override {
    return dep_ == Dependency::kNone ? "TetrisW/oDep" : "TetrisW/SimDep";
  }

  /// Placement: place_least_backlog, topological for W/SimDep.
  std::vector<TaskPlacement> schedule(const std::vector<JobId>& jobs,
                                      Engine& engine) override;

  /// Dispatch: highest alignment score among fitting waiting tasks
  /// (restricted to runnable tasks for W/SimDep); the first maximum in
  /// queue order wins ties. W/oDep scans the whole queue and skips
  /// launch-blocked entries through Engine::launch_blocked, one state
  /// byte, before it reads a task record. The free resources are
  /// normalized once per call, and each entry is scored by the helper
  /// alignment() itself calls, so it is the same double (DESIGN.md
  /// §10.5).
  Gid select_next(int node, Engine& engine,
                  const std::vector<std::uint8_t>& excluded) override;

  /// The blind variant launches tasks whose inputs are missing; they hold
  /// their slot until the inputs appear (classic slot hoarding).
  bool hoards_slots() const override { return dep_ == Dependency::kNone; }

  /// Alignment score of demand against an available-resource vector,
  /// normalized per dimension by the node capacity so no single resource
  /// dominates (Tetris §4.1's weighted dot product).
  static double alignment(const Resources& available, const Resources& demand,
                          const Resources& capacity);

 private:
  Dependency dep_;
};

}  // namespace dsp
