// Ablation: gamma, the level-weighting coefficient of Formula 12.
//
// gamma in (0,1) controls how strongly higher-level tasks (those whose
// completion unlocks deeper subtrees) are prioritized. gamma -> 0 flattens
// the dependency signal toward plain leaf priorities; larger gamma
// amplifies it. The paper sets gamma = 0.5 (Table II) and defers the
// sensitivity study to future work — this bench is that study.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace dsp::bench;
  using namespace dsp;
  const auto cli = BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header("Ablation: gamma (Formula 12 level weighting)", env);
  BenchJsonReport report("ablation_gamma", env);

  const std::size_t jobs_n = 300;

  const std::vector<double> gammas{0.1, 0.3, 0.5, 0.7, 0.9};
  std::vector<ScenarioSpec> grid;
  for (const double gamma : gammas) {
    // gamma feeds both the scheduler (level weights) and the preemption
    // policy (urgency); the knob plumbs it to both via the factory.
    ScenarioSpec spec = fig_scenario(ClusterProfile::kEc2, jobs_n, env);
    spec.dsp.gamma = gamma;
    grid.push_back(std::move(spec));
  }
  const std::vector<RunMetrics> results =
      run_standard_grid(grid, env.grid_options()).metrics;

  Table table("gamma sweep: " + std::to_string(jobs_n) + " jobs, EC2 profile");
  table.set_header({"gamma", "throughput(t/ms)", "makespan(s)", "avg-wait(s)",
                    "preemptions", "deadline-met"});
  for (std::size_t i = 0; i < gammas.size(); ++i) {
    const RunMetrics& m = results[i];
    table.add_row({fmt(gammas[i], 1), fmt(m.throughput_tasks_per_ms(), 4),
                   fmt(to_seconds(m.makespan)), fmt(m.avg_job_waiting_s()),
                   fmt_count(static_cast<long long>(m.preemptions)),
                   fmt_count(static_cast<long long>(m.jobs_met_deadline))});
    report.add_run("gamma=" + fmt(gammas[i], 1), m);
  }
  std::fputs(table.render().c_str(), stdout);
  return report.write_if_requested(cli) ? 0 : 1;
}
