// Task and resource-demand model.
//
// A job is split into tasks (paper §III); each task has a size in Millions
// of Instructions (MI) and a multi-resource demand vector (CPU cores, memory
// GB, disk MB, bandwidth MB/s) matching the paper's evaluation setup, where
// CPU/memory come from the Google trace and disk/bandwidth are the fixed
// per-task constants of §V.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace dsp {

/// Job identifier, unique within a workload.
using JobId = std::uint32_t;

/// Task index within its job (the `j` of T_ij).
using TaskIndex = std::uint32_t;

inline constexpr JobId kInvalidJob = ~JobId{0};
inline constexpr TaskIndex kInvalidTask = ~TaskIndex{0};

/// Multi-resource vector: the four dimensions the paper's evaluation uses.
struct Resources {
  double cpu = 0.0;   ///< CPU cores (fractional allowed).
  double mem = 0.0;   ///< Memory in GB.
  double disk = 0.0;  ///< Disk in MB.
  double bw = 0.0;    ///< Network bandwidth in MB/s.

  /// True when every component of `demand` fits within this vector.
  bool fits(const Resources& demand) const {
    return demand.cpu <= cpu + 1e-9 && demand.mem <= mem + 1e-9 &&
           demand.disk <= disk + 1e-9 && demand.bw <= bw + 1e-9;
  }

  Resources& operator+=(const Resources& o) {
    cpu += o.cpu;
    mem += o.mem;
    disk += o.disk;
    bw += o.bw;
    return *this;
  }

  Resources& operator-=(const Resources& o) {
    cpu -= o.cpu;
    mem -= o.mem;
    disk -= o.disk;
    bw -= o.bw;
    return *this;
  }

  friend Resources operator+(Resources a, const Resources& b) { return a += b; }
  friend Resources operator-(Resources a, const Resources& b) { return a -= b; }

  /// Dot product — the core of Tetris' alignment score.
  double dot(const Resources& o) const {
    return cpu * o.cpu + mem * o.mem + disk * o.disk + bw * o.bw;
  }

  /// Component-wise maximum, used for capacity normalization.
  static Resources max_of(const Resources& a, const Resources& b) {
    return Resources{a.cpu > b.cpu ? a.cpu : b.cpu, a.mem > b.mem ? a.mem : b.mem,
                     a.disk > b.disk ? a.disk : b.disk, a.bw > b.bw ? a.bw : b.bw};
  }

  std::string to_string() const;
};

/// One task T_ij of a job.
///
/// Dependency structure lives in the owning TaskGraph; the task records only
/// its intrinsic properties plus the level/deadline attributes derived once
/// when the job is finalized.
struct Task {
  TaskIndex index = kInvalidTask;  ///< Position within the job.
  // Derived at job finalization (like `deadline` below); kept next to
  // `index` so the two 4-byte fields share one 8-byte slot.
  int level = 0;                   ///< 1-based DAG level (roots = 1).
  double size_mi = 0.0;            ///< Size l_ij in Millions of Instructions.
  Resources demand;                ///< Peak resource demand while running.

  // Data locality (paper §VI future work). When `input_nodes` is
  // non-empty, the task's input data of `input_mb` megabytes lives on
  // those cluster nodes; running anywhere else first fetches the data over
  // the network (sim/engine.h's kRemoteReadBwMbps).
  std::vector<int> input_nodes;
  double input_mb = 0.0;

  // Derived at job finalization:
  SimTime deadline = kNoTime;  ///< Per-task deadline t^d_ij (absolute).

  /// True when the task's input data is resident on `node` (tasks without
  /// input constraints are local everywhere).
  bool input_local_to(int node) const {
    if (input_nodes.empty()) return true;
    for (int n : input_nodes)
      if (n == node) return true;
    return false;
  }
};

}  // namespace dsp
