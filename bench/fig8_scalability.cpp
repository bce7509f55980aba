// Figure 8: DSP scalability — makespan (a) and throughput (b) as the job
// count grows from 500 to 2500 on both testbeds. Paper shape: makespan
// grows and throughput decays gradually, flattening at high job counts.
#include <cstdio>

#include "bench_common.h"

namespace dsp::bench {
namespace {

void run(const BenchCli& cli) {
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header("Figure 8: DSP scalability", env);

  const std::vector<std::string> testbeds{"real-cluster", "EC2"};
  MetricSeries series(testbeds, env.scalability_counts());

  for (std::size_t xi = 0; xi < env.scalability_counts().size(); ++xi) {
    const auto jobs_n =
        static_cast<std::size_t>(env.scalability_counts()[xi]);
    series.set(0, xi,
               run_standard_scenario(scheduler_scenario(
                   SchedKind::kDsp, ClusterProfile::kRealCluster, jobs_n, env)));
    series.set(1, xi,
               run_standard_scenario(scheduler_scenario(
                   SchedKind::kDsp, ClusterProfile::kEc2, jobs_n, env)));
  }

  std::fputs(series.makespan_table("Fig 8(a): DSP makespan (s) vs #jobs")
                 .render().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(series.throughput_table("Fig 8(b): DSP throughput (tasks/ms) vs #jobs")
                 .render().c_str(), stdout);
  std::fputs("\n", stdout);

  BenchJsonReport report("fig8_scalability", env);
  report.add_series("Fig 8", series);
  report.write_if_requested(cli);
}

}  // namespace
}  // namespace dsp::bench

int main(int argc, char** argv) {
  const auto cli = dsp::bench::BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  dsp::bench::run(cli);
  return 0;
}
