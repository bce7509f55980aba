// Ablation: normalized-priority preemption (PP).
//
// Sweeps rho (the PP gap threshold) and compares against PP disabled
// (DSPW/oPP). Expectation (paper §IV-B): PP cuts the preemption count —
// removing churn preemptions whose context-switch cost exceeds their
// throughput gain — without hurting (and usually helping) throughput.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace dsp::bench;
  using namespace dsp;
  const auto cli = BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header("Ablation: normalized-priority preemption (PP)", env);
  BenchJsonReport report("ablation_pp", env);

  const std::size_t jobs_n = 300;

  struct Variant {
    std::string name;
    bool pp;
    double rho;
  };
  // rho acts as a rank-distance threshold (see DspParams::rho): the sweep
  // spans "no filtering" through "suppress everything but rank-distant
  // swaps".
  const std::vector<Variant> variants{
      {"no-PP", false, 0.0},    {"rho=10", true, 10.0},
      {"rho=100", true, 100.0}, {"rho=200", true, 200.0},
      {"rho=500", true, 500.0}, {"rho=2000", true, 2000.0},
  };

  std::vector<ScenarioSpec> grid;
  for (const auto& v : variants) {
    ScenarioSpec spec = fig_scenario(ClusterProfile::kEc2, jobs_n, env);
    spec.dsp.normalized_pp = v.pp;
    if (v.pp) spec.dsp.rho = v.rho;
    grid.push_back(std::move(spec));
  }
  const std::vector<RunMetrics> results =
      run_standard_grid(grid, env.grid_options()).metrics;

  Table table("PP ablation: " + std::to_string(jobs_n) + " jobs, EC2 profile");
  table.set_header({"variant", "preemptions", "suppressed", "throughput(t/ms)",
                    "makespan(s)", "avg-wait(s)"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Variant& v = variants[i];
    const RunMetrics& m = results[i];
    table.add_row({v.name, fmt_count(static_cast<long long>(m.preemptions)),
                   fmt_count(static_cast<long long>(m.suppressed_preemptions)),
                   fmt(m.throughput_tasks_per_ms(), 4),
                   fmt(to_seconds(m.makespan)), fmt(m.avg_job_waiting_s())});
    report.add_run(v.name, m);
  }
  std::fputs(table.render().c_str(), stdout);
  return report.write_if_requested(cli) ? 0 : 1;
}
