// Analytics-pipeline scenario: the data-parallel workloads the paper's
// introduction motivates (MapReduce/Spark-style multi-stage analytics).
//
// Synthesizes a mixed workload of small/medium/large DAG jobs — ETL fans,
// shuffle diamonds, ML iteration chains arise from the generator's DAG
// shapes — and compares the full DSP system against Tetris (with simple
// dependency handling) on the same cluster.
//
//   $ ./analytics_pipeline [jobs=30] [seed=1]
//
// A job count that is not an integer from 1 to 2^32 - 1 (job ids are 32
// bits), or a seed that is not an unsigned integer, exits with status 2
// and names the token.
#include <cstdint>
#include <cstdio>

#include "baselines/tetris.h"
#include "core/dsp_system.h"
#include "metrics/report.h"
#include "trace/workload.h"
#include "util/parse.h"

int main(int argc, char** argv) {
  using namespace dsp;
  unsigned long long n_jobs = 30;
  if (argc > 1 && (!parse_count(argv[1], n_jobs) || n_jobs < 1 ||
                   n_jobs > kInvalidJob)) {
    std::fprintf(stderr,
                 "invalid job count '%s' (expected an integer from 1 to %u)\n",
                 argv[1], kInvalidJob);
    return 2;
  }
  unsigned long long seed = 1;
  if (argc > 2 && !parse_count(argv[2], seed)) {
    std::fprintf(stderr,
                 "invalid seed '%s' (expected an unsigned 64-bit integer)\n",
                 argv[2]);
    return 2;
  }

  // Workload: the paper's recipe at 1/20 task scale so the demo finishes
  // in seconds. Small, medium and large jobs in equal parts; DAGs capped
  // at 5 levels / 15 dependents as in §V.
  WorkloadConfig cfg;
  cfg.job_count = static_cast<std::size_t>(n_jobs);
  cfg.task_scale = 0.05;
  WorkloadGenerator generator(cfg, seed);
  const JobSet jobs = generator.generate();

  std::size_t tasks = 0;
  double work_hours = 0.0;
  for (const auto& j : jobs) {
    tasks += j.task_count();
    work_hours += j.total_work_mi();
  }
  const ClusterSpec cluster = ClusterSpec::real_cluster(/*n=*/20);
  work_hours /= cluster.mean_rate() * 3600.0;
  std::printf("workload: %zu jobs, %zu tasks, ~%.1f node-hours of work\n\n",
              jobs.size(), tasks, work_hours);

  EngineParams engine_params;
  engine_params.period = 1 * kMinute;
  engine_params.epoch = 10 * kSecond;

  // --- DSP: ILP-guided placement + dependency-aware preemption ---------
  DspSystem dsp;
  const RunMetrics dsp_m = dsp.run(cluster, jobs, engine_params);
  std::printf("DSP            %s\n", summarize(dsp_m).c_str());

  // --- Tetris with simple dependency handling --------------------------
  TetrisScheduler tetris(TetrisScheduler::Dependency::kSimple);
  const RunMetrics tetris_m =
      simulate(cluster, jobs, tetris, nullptr, engine_params);
  std::printf("TetrisW/SimDep %s\n\n", summarize(tetris_m).c_str());

  const double speedup = to_seconds(tetris_m.makespan) /
                         std::max(1.0, to_seconds(dsp_m.makespan));
  std::printf("DSP makespan speedup over Tetris: %.2fx\n", speedup);
  std::printf("deadlines met: DSP %llu/%zu, Tetris %llu/%zu\n\n",
              static_cast<unsigned long long>(dsp_m.jobs_met_deadline),
              jobs.size(),
              static_cast<unsigned long long>(tetris_m.jobs_met_deadline),
              jobs.size());
  std::fputs(job_class_table(dsp_m, "DSP results by job size class")
                 .render().c_str(), stdout);
  return 0;
}
