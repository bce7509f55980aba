// Figure 5: makespan vs number of jobs for the scheduling methods.
//   5(a) real cluster (50 nodes)   5(b) Amazon EC2 (30 nodes)
// Methods: DSP, Aalo, TetrisW/SimDep, TetrisW/oDep.
// Paper shape: makespan grows with job count and orders
//   DSP < Aalo < TetrisW/SimDep < TetrisW/oDep.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace dsp;
  using namespace dsp::bench;
  const auto cli = BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header("Figure 5: makespan of scheduling methods", env);

  const std::vector<SchedKind> methods{SchedKind::kDsp, SchedKind::kAalo,
                                       SchedKind::kTetrisSimDep,
                                       SchedKind::kTetrisNoDep};
  const struct {
    const char* title;
    ClusterProfile profile;
  } testbeds[] = {{"Fig 5(a) real cluster", ClusterProfile::kRealCluster},
                  {"Fig 5(b) Amazon EC2", ClusterProfile::kEc2}};

  // Both testbeds in one grid, each testbed's cells x-major.
  std::vector<ScenarioSpec> grid;
  for (const auto& testbed : testbeds)
    for (const long long jobs : env.job_counts())
      for (const SchedKind m : methods)
        grid.push_back(scheduler_scenario(m, testbed.profile,
                                          static_cast<std::size_t>(jobs), env));
  const std::vector<RunMetrics> results =
      run_standard_grid(grid, env.grid_options()).metrics;

  std::vector<std::string> names;
  for (const SchedKind m : methods) names.emplace_back(to_string(m));
  BenchJsonReport report("fig5_makespan", env);
  std::size_t first = 0;
  for (const auto& testbed : testbeds) {
    const MetricSeries series =
        make_series(names, env.job_counts(), results, first);
    first += names.size() * env.job_counts().size();
    std::fputs(series
                   .makespan_table(std::string(testbed.title) +
                                   ": makespan (s) vs #jobs")
                   .render()
                   .c_str(),
               stdout);
    std::fputs("\n", stdout);
    report.add_series(testbed.title, series);
  }
  return report.write_if_requested(cli) ? 0 : 1;
}
