// Ablation: data locality (§VI future work).
//
// Root tasks read replicated input datasets; running off the data nodes
// costs a remote fetch. Sweeps the input-pinned fraction and compares
// locality-aware DSP placement against locality-blind placement.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace dsp::bench;
  using namespace dsp;
  const auto cli = BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header("Ablation: data locality", env);
  BenchJsonReport report("ablation_locality", env);

  const std::size_t jobs_n = 200;
  const ScenarioSpec base = fig_scenario(ClusterProfile::kEc2, jobs_n, env);
  const std::size_t cluster_nodes = make_cluster(base.cluster).size();

  std::vector<ScenarioSpec> grid;
  for (double fraction : {0.0, 0.4, 0.8}) {
    for (bool aware : {true, false}) {
      ScenarioSpec spec = base;
      spec.workload.locality_nodes = cluster_nodes;
      spec.workload.locality_fraction = fraction;
      spec.workload.input_mb_mu = 6.5;
      spec.dsp.locality_aware = aware;
      grid.push_back(std::move(spec));
      if (fraction == 0.0) break;  // variants identical with no pinning
    }
  }
  const std::vector<RunMetrics> results =
      run_standard_grid(grid, env.grid_options()).metrics;

  Table table("locality-aware vs blind placement (200 jobs, EC2 profile)");
  table.set_header({"pinned-fraction", "variant", "hit-rate", "makespan(s)",
                    "throughput(t/ms)", "overhead(s)"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double fraction = grid[i].workload.locality_fraction;
    const char* variant = grid[i].dsp.locality_aware ? "aware" : "blind";
    const RunMetrics& m = results[i];
    table.add_row({fmt(fraction, 1), variant, fmt(m.locality_hit_rate(), 3),
                   fmt(to_seconds(m.makespan)),
                   fmt(m.throughput_tasks_per_ms(), 4), fmt(m.overhead_s, 0)});
    report.add_run("pinned=" + fmt(fraction, 1) + "-" + variant, m);
  }
  std::fputs(table.render().c_str(), stdout);
  return report.write_if_requested(cli) ? 0 : 1;
}
