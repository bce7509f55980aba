// Synthetic workload generation following the paper's evaluation recipe.
//
// The paper (§V) replays jobs from the Google cluster trace (May 2011):
// three job size classes (large = 2000 tasks, medium = 1000, small =
// several hundred) in equal proportion, Poisson arrivals at x jobs/minute
// with x drawn uniformly from [2, 5], per-task CPU/memory/duration taken
// from the trace, disk = 0.02 MB and bandwidth = 0.02 MB/s fixed, and
// dependency DAGs derived from execution-time overlap, constrained to at
// most 5 levels and at most 15 dependents per task.
//
// We do not have the proprietary trace, so WorkloadGenerator synthesizes
// the same marginals: heavy-tailed (log-normal) task sizes and resource
// demands with parameters matched to published Google-trace statistics, and
// DAGs built level-by-level under the same depth/fan-out caps. A CSV reader
// (trace_io.h) accepts real traces in place of the generator.
//
// The recipe's fixed parameters are the named constants below; the
// settings some program, bench or test changes stay WorkloadConfig fields.
#pragma once

#include <cstdint>

#include "dag/job.h"
#include "util/rng.h"

namespace dsp {

/// DAG shape caps from the paper, and the mean number of parents of a
/// non-root task (each drawn from the previous level, under kMaxFanout).
inline constexpr int kMaxLevels = 5;
inline constexpr std::size_t kMaxFanout = 15;
inline constexpr double kMeanParents = 1.6;

/// Task size distribution: log-normal over Millions of Instructions,
/// clamped. Median exp(kSizeMu) MI; at a 2660 MIPS node exp(10.8) MI ~=
/// 18.5 s, matching the tens-of-seconds median of Google-trace task
/// durations.
inline constexpr double kSizeMu = 10.8, kSizeSigma = 1.0;
inline constexpr double kSizeMinMi = 1.0e3, kSizeMaxMi = 2.0e6;

/// Resource demand distributions (log-normal, clamped to WorkloadConfig's
/// bounds), and the disk (MB) and bandwidth (MB/s) fixed per paper §V.
inline constexpr double kCpuMu = -0.7, kCpuSigma = 0.6;  ///< median ~0.5
inline constexpr double kMemMu = -1.0, kMemSigma = 0.8;  ///< median ~0.37
inline constexpr double kDiskMb = 0.02, kBwMbps = 0.02;

/// Deadline = arrival + slack * critical-path time at kReferenceRate.
/// Production jobs (Natjam's high tier) get the tight range, research
/// jobs the loose range.
inline constexpr double kProductionFraction = 0.5;
inline constexpr double kProdSlackMin = 2.0, kProdSlackMax = 3.5;
inline constexpr double kResSlackMin = 4.0, kResSlackMax = 7.0;

/// MIPS rate used for critical-path estimation when deriving deadlines
/// and per-level task deadlines (the paper's EC2 instances: 2660 MIPS);
/// also the rate `trace_replay --stats` and `dsp_analyze` (by default)
/// read a CSV trace at.
inline constexpr double kReferenceRate = 2660.0;

/// Replicas of each input dataset, and the sigma of its log-normal size.
inline constexpr int kLocalityReplicas = 3;
inline constexpr double kInputMbSigma = 1.0;

/// Workload settings some caller changes; defaults reproduce the paper's
/// setup at `task_scale` = 1. Benches run a scaled-down default (see
/// DESIGN.md).
struct WorkloadConfig {
  std::size_t job_count = 150;  ///< h in the paper (150..750, 500..2500).

  /// Multiplies the per-class task counts (1.0 = paper scale: 2000/1000/
  /// several hundred). Benches default to 0.1 via the DSP_SCALE env var.
  double task_scale = 1.0;

  /// Arrival rate bounds in jobs/minute; the realized rate is drawn
  /// uniformly from this range once per workload (paper: [2, 5]).
  double min_arrival_rate = 2.0;
  double max_arrival_rate = 5.0;

  /// Demand clamps (cores, GB). The defaults keep every task runnable on
  /// the smallest evaluated node (the EC2 profile: 2 cores, 4 GB).
  double cpu_min = 0.1, cpu_max = 2.0;
  double mem_min = 0.05, mem_max = 3.5;

  /// Data locality (§VI future work): when `locality_nodes` > 0, each
  /// root task gets, with probability `locality_fraction`, an input
  /// dataset of log-normal size (mu `input_mb_mu`, sigma kInputMbSigma)
  /// replicated on kLocalityReplicas random nodes of a cluster with that
  /// many nodes. Non-root tasks read their parents' outputs and carry no
  /// placement constraint.
  std::size_t locality_nodes = 0;
  double locality_fraction = 0.8;
  double input_mb_mu = 5.5;  ///< median ~245 MB
};

/// Number of tasks for each size class at the given scale (paper values
/// times scale, minimum 2). "Small" draws uniformly from several hundred
/// (200..800) before scaling, so it is randomized per job.
std::size_t tasks_for_class(JobSize size_class, double scale, Rng& rng);

/// Synthesizes deadline-constrained DAG jobs per the recipe above.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadConfig config, std::uint64_t seed = 42)
      : config_(config), rng_(seed) {}

  /// Generates `config.job_count` finalized jobs with Poisson arrivals
  /// starting at time 0. Job size classes cycle small/medium/large so the
  /// three classes appear in equal proportion (paper §V).
  JobSet generate();

  /// Generates a single job of the given class arriving at `arrival`.
  Job make_job(JobId id, JobSize size_class, SimTime arrival);

  const WorkloadConfig& config() const { return config_; }

 private:
  void build_dag(Job& job);
  void fill_tasks(Job& job);
  void assign_deadline(Job& job);
  void assign_input_locations(Job& job);

  WorkloadConfig config_;
  Rng rng_;
};

}  // namespace dsp
