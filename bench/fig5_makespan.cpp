// Figure 5: makespan vs number of jobs for the scheduling methods.
//   5(a) real cluster (50 nodes)   5(b) Amazon EC2 (30 nodes)
// Methods: DSP, Aalo, TetrisW/SimDep, TetrisW/oDep.
// Paper shape: makespan grows with job count and orders
//   DSP < Aalo < TetrisW/SimDep < TetrisW/oDep.
#include <cstdio>

#include "bench_common.h"

namespace dsp::bench {
namespace {

void run_testbed(const char* title, ClusterProfile profile,
                 const BenchEnv& env, BenchJsonReport& report) {
  const std::vector<SchedKind> methods{SchedKind::kDsp, SchedKind::kAalo,
                                       SchedKind::kTetrisSimDep,
                                       SchedKind::kTetrisNoDep};
  std::vector<std::string> names;
  for (auto m : methods) names.emplace_back(to_string(m));
  MetricSeries series(names, env.job_counts());

  for (std::size_t xi = 0; xi < env.job_counts().size(); ++xi) {
    const auto jobs_n = static_cast<std::size_t>(env.job_counts()[xi]);
    for (std::size_t mi = 0; mi < methods.size(); ++mi)
      series.set(mi, xi,
                 run_standard_scenario(
                     scheduler_scenario(methods[mi], profile, jobs_n, env)));
  }

  std::fputs(series.makespan_table(std::string(title) + ": makespan (s) vs #jobs")
                 .render()
                 .c_str(),
             stdout);
  std::fputs("\n", stdout);
  report.add_series(title, series);
}

}  // namespace
}  // namespace dsp::bench

int main(int argc, char** argv) {
  using namespace dsp::bench;
  const auto cli = BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header("Figure 5: makespan of scheduling methods", env);
  BenchJsonReport report("fig5_makespan", env);
  run_testbed("Fig 5(a) real cluster", dsp::ClusterProfile::kRealCluster, env,
              report);
  run_testbed("Fig 5(b) Amazon EC2", dsp::ClusterProfile::kEc2, env, report);
  report.write_if_requested(cli);
  return 0;
}
