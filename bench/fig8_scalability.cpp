// Figure 8: DSP scalability — makespan (a) and throughput (b) as the job
// count grows from 500 to 2500 on both testbeds. Paper shape: makespan
// grows and throughput decays gradually, flattening at high job counts.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace dsp;
  using namespace dsp::bench;
  const auto cli = BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header("Figure 8: DSP scalability", env);

  std::vector<ScenarioSpec> grid;
  for (const long long jobs : env.scalability_counts())
    for (const ClusterProfile profile :
         {ClusterProfile::kRealCluster, ClusterProfile::kEc2})
      grid.push_back(scheduler_scenario(SchedKind::kDsp, profile,
                                        static_cast<std::size_t>(jobs), env));
  const MetricSeries series =
      make_series({"real-cluster", "EC2"}, env.scalability_counts(),
                  run_standard_grid(grid, env.grid_options()).metrics);

  std::fputs(series.makespan_table("Fig 8(a): DSP makespan (s) vs #jobs")
                 .render().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(series.throughput_table("Fig 8(b): DSP throughput (tasks/ms) vs #jobs")
                 .render().c_str(), stdout);
  std::fputs("\n", stdout);

  BenchJsonReport report("fig8_scalability", env);
  report.add_series("Fig 8", series);
  return report.write_if_requested(cli) ? 0 : 1;
}
