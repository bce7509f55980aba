// Ablation: delta, the preempting-task window (Algorithm 1).
//
// DSP only considers the first delta fraction of each waiting queue as
// preemptors "to save overhead" (§IV-B), and adapts delta to the observed
// preemption rate. This bench sweeps fixed deltas against the adaptive
// controller.
#include <cstdio>

#include "bench_common.h"
#include "core/preemption.h"

int main(int argc, char** argv) {
  using namespace dsp::bench;
  using namespace dsp;
  const auto cli = BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header("Ablation: delta window (Algorithm 1)", env);
  BenchJsonReport report("ablation_delta", env);

  const std::size_t jobs_n = 300;
  const ScenarioSpec base = fig_scenario(ClusterProfile::kEc2, jobs_n, env);
  const JobSet jobs = WorkloadGenerator(base.workload, base.seed).generate();

  Table table("delta sweep: " + std::to_string(jobs_n) + " jobs, EC2 profile");
  table.set_header({"delta", "preemptions", "throughput(t/ms)", "makespan(s)",
                    "avg-wait(s)", "final-delta"});

  // This bench reads policy.current_delta() after each run, which a grid
  // cell cannot return, so its five short runs stay a loop over bare
  // Engines with a concrete DspPreemption over the spec's DSP settings
  // (recording no event stream).
  auto run_variant = [&](const std::string& name, double delta, bool adaptive) {
    ScenarioSpec spec = base;
    spec.dsp.delta = delta;
    spec.dsp.adaptive_delta = adaptive;
    const auto sched = StandardScenarioFactory().make_scheduler(spec);
    DspPreemption policy(spec.dsp);
    Engine engine(make_cluster(spec.cluster), jobs, *sched, &policy,
                  spec.engine);
    const RunMetrics m = engine.run();
    table.add_row({name, fmt_count(static_cast<long long>(m.preemptions)),
                   fmt(m.throughput_tasks_per_ms(), 4),
                   fmt(to_seconds(m.makespan)), fmt(m.avg_job_waiting_s()),
                   fmt(policy.current_delta(), 3)});
    report.add_run(name, m);
  };

  for (double delta : {0.1, 0.35, 0.6, 0.9})
    run_variant("fixed " + fmt(delta, 2), delta, false);
  run_variant("adaptive (0.35 start)", 0.35, true);

  std::fputs(table.render().c_str(), stdout);
  return report.write_if_requested(cli) ? 0 : 1;
}
