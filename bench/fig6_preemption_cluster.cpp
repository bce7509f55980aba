// Figure 6: preemption methods on the real cluster (50 nodes), all running
// on DSP's initial schedule.
//   6(a) # dependency disorders   — DSP = 0 < Natjam ~ Amoeba < SRPT
//   6(b) throughput (tasks/ms)    — SRPT < Amoeba ~ Natjam < DSPW/oPP < DSP
//   6(c) average job waiting time — DSP < DSPW/oPP < Natjam ~ SRPT < Amoeba
//   6(d) # preemptions            — DSP < DSPW/oPP < Natjam < Amoeba < SRPT
#include <cstdio>

#include "bench_common.h"

namespace dsp::bench {

void run_preemption_figure(const char* figure, const char* bench_name,
                           ClusterProfile profile, const BenchCli& cli) {
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header(std::string(figure) + ": preemption methods", env);

  const std::vector<PolicyKind> methods{PolicyKind::kDsp, PolicyKind::kDspNoPp,
                                        PolicyKind::kAmoeba, PolicyKind::kNatjam,
                                        PolicyKind::kSrpt};
  std::vector<std::string> names;
  for (auto m : methods) names.emplace_back(to_string(m));
  MetricSeries series(names, env.job_counts());

  for (std::size_t xi = 0; xi < env.job_counts().size(); ++xi) {
    const auto jobs_n = static_cast<std::size_t>(env.job_counts()[xi]);
    for (std::size_t mi = 0; mi < methods.size(); ++mi)
      series.set(mi, xi,
                 run_standard_scenario(
                     policy_scenario(methods[mi], profile, jobs_n, env)));
  }

  const std::string f = figure;
  std::fputs(series.disorders_table(f + "(a): # of disorders vs #jobs")
                 .render().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(series.throughput_table(f + "(b): throughput (tasks/ms) vs #jobs")
                 .render().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(series.waiting_table(f + "(c): avg job waiting time (s) vs #jobs")
                 .render().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(series.preemptions_table(f + "(d): # of preemptions vs #jobs")
                 .render().c_str(), stdout);
  std::fputs("\n", stdout);

  BenchJsonReport report(bench_name, env);
  report.add_series(figure, series);
  report.write_if_requested(cli);
}

}  // namespace dsp::bench

#ifndef DSP_FIG6_NO_MAIN
int main(int argc, char** argv) {
  const auto cli = dsp::bench::BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  dsp::bench::run_preemption_figure("Fig 6", "fig6_preemption_cluster",
                                    dsp::ClusterProfile::kRealCluster, cli);
  return 0;
}
#endif
