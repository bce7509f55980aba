// Shared harness for the figure-reproduction benches.
//
// A simulation bench describes its whole experiment as one ScenarioSpec
// list (sim/scenario.h), one spec per (testbed, method, x) cell, and runs
// it with a single run_standard_grid call (scenarios/standard.h) on
// DSP_THREADS workers. Results come back in list order and do not depend
// on the worker count, so a bench prints the same tables and --json at
// any DSP_THREADS. A bench records no event stream: every fig5-fig8 cell
// is also a dsp_sweep cell, and dsp_sweep --event-log-dir records it.
//
// Scaling: the paper runs up to 750 jobs x up to 2000 tasks for hours on
// 50 physical servers. The benches keep the paper's job counts and
// small/medium/large mix but scale per-job task counts by DSP_SCALE
// (default 0.1). Override with:
//   DSP_SCALE=1.0  paper-scale task counts (slow); finite and > 0
//   DSP_SEED=7     workload seed; an unsigned integer
//   DSP_POINTS=3   how many x-axis points to run, 1 to 5 (default all 5)
//   DSP_THREADS=4  grid workers, 1 to 4294967295 (default 1); changes
//                  wall time only
// A bench given any other value exits with status 2 before its first run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/report.h"
#include "scenarios/standard.h"
#include "sim/cluster.h"

namespace dsp::bench {

/// Bench settings; the defaults apply where the environment sets nothing.
struct BenchEnv {
  static constexpr std::size_t kMaxPoints = 5;  ///< x-axis length

  double scale = 0.1;
  std::uint64_t seed = 42;
  std::size_t points = kMaxPoints;
  /// Grid workers. No output depends on it, so neither the header line
  /// nor the --json env object shows it.
  unsigned threads = 1;

  /// Runs a bench's grid on `threads` workers, with no event stream.
  GridOptions grid_options() const {
    GridOptions options;
    options.threads = threads;
    return options;
  }

  /// Reads DSP_SCALE, DSP_SEED, DSP_POINTS and DSP_THREADS. A set but
  /// invalid value prints the variable and its value to stderr and exits
  /// with status 2.
  static BenchEnv from_env();

  /// The paper's Fig. 5-7 x-axis: 150..750 step 150 (truncated to
  /// `points`).
  std::vector<long long> job_counts() const {
    std::vector<long long> xs{150, 300, 450, 600, 750};
    if (xs.size() > points) xs.resize(points);
    return xs;
  }

  /// The paper's Fig. 8 x-axis: 500..2500 step 500.
  std::vector<long long> scalability_counts() const {
    std::vector<long long> xs{500, 1000, 1500, 2000, 2500};
    if (xs.size() > points) xs.resize(points);
    return xs;
  }
};

/// Base spec for one figure cell: the given testbed profile, the paper's
/// workload recipe at `jobs` jobs and env.scale, env.seed, and the
/// default EngineParams (the paper's 5-minute scheduling period and
/// 30-second preemption epoch). Callers then pick the policy pair.
ScenarioSpec fig_scenario(ClusterProfile profile, std::size_t jobs,
                          const BenchEnv& env);

/// Spec for one Fig. 5/8 scheduler-comparison run. The paper compares the
/// *full* DSP system against scheduling-only baselines: DSP keeps its
/// online preemption, every other scheduler runs offline-only.
ScenarioSpec scheduler_scenario(SchedKind kind, ClusterProfile profile,
                                std::size_t jobs, const BenchEnv& env);

/// Spec for one Fig. 6/7 preemption-comparison run ("we use our initial
/// schedule for all preemption methods": DSP scheduling for everyone).
ScenarioSpec policy_scenario(PolicyKind kind, ClusterProfile profile,
                             std::size_t jobs, const BenchEnv& env);

/// Prints a one-line header for a bench binary.
void print_bench_header(const std::string& name, const BenchEnv& env);

/// The `methods` x `xs` series of a grid slice listed x-major: cell
/// (m, x) is results[first + x * methods.size() + m].
MetricSeries make_series(std::vector<std::string> methods,
                         std::vector<long long> xs,
                         const std::vector<RunMetrics>& results,
                         std::size_t first = 0);

/// Command-line flags shared by every bench binary.
struct BenchCli {
  std::string json_path;  ///< --json <path>; empty = no JSON dump.
  bool ok = true;         ///< False on unknown flags (usage was printed).

  /// Parses `--json <path>` (and `--help`). Unknown flags set ok=false.
  static BenchCli parse(int argc, char** argv);
};

/// Machine-readable bench report: named series / single runs / scalars
/// plus a snapshot of the default metrics registry. Written as one JSON
/// object:
///   {"bench":...,"env":{"scale","seed","points"},
///    "series":[{"name",...}],"runs":[{"name","metrics"}],
///    "scalars":{...},"registry":{"counters","histograms"}}
class BenchJsonReport {
 public:
  BenchJsonReport(std::string bench, BenchEnv env);

  void add_series(const std::string& name, const MetricSeries& series);
  void add_run(const std::string& name, const RunMetrics& metrics);
  void add_scalar(const std::string& name, double value);

  /// Serializes the report (including obs::default_registry()) to `path`.
  /// Returns false, after printing an error naming `path`, when the file
  /// cannot be opened or written.
  bool write(const std::string& path) const;

  /// If cli names a --json path, writes there and prints a confirmation;
  /// then flushes standard output (flush_stdout, util/log.h). False when
  /// the report or standard output could not be written; bench mains
  /// then exit with status 1. Bench mains call it last.
  bool write_if_requested(const BenchCli& cli) const;

 private:
  std::string bench_;
  BenchEnv env_;
  std::vector<std::pair<std::string, std::string>> series_;  // name, json
  std::vector<std::pair<std::string, std::string>> runs_;    // name, json
  std::vector<std::pair<std::string, double>> scalars_;
};

/// Fig. 6/7: the five preemption methods, all on DSP's initial schedule,
/// on `profile` at every job count, as one grid. Prints the four panels
/// and writes --json; returns the bench's exit status.
int run_preemption_figure(const char* figure, const char* bench_name,
                          ClusterProfile profile, const BenchCli& cli);

}  // namespace dsp::bench
