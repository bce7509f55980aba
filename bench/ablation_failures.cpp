// Ablation: fault tolerance (the paper's §VI future work).
//
// Injects node outages at increasing rates and stragglers, comparing DSP
// against the preemption baselines. Checkpoint-restart pays off: DSP and
// the checkpointed baselines lose little work, while SRPT (no checkpoints)
// re-executes everything its failed nodes had in flight.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace dsp::bench;
  using namespace dsp;
  const auto cli = BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header("Ablation: node failures and stragglers", env);
  BenchJsonReport report("ablation_failures", env);

  const std::size_t jobs_n = 300;

  // ---- Outage-rate sweep for DSP --------------------------------------
  Table sweep("DSP under increasing outage rates (300 jobs, EC2 profile)");
  sweep.set_header({"MTBF(h)", "failures", "tasks-killed", "makespan(s)",
                    "throughput(t/ms)", "work-lost(MI)"});
  for (double mtbf_hours : {0.0, 8.0, 4.0, 2.0, 1.0}) {
    ScenarioSpec spec = fig_scenario(ClusterProfile::kEc2, jobs_n, env);
    if (mtbf_hours > 0.0) {
      spec.failures.kind = FailureRecipe::Kind::kOutages;
      spec.failures.mtbf_hours = mtbf_hours;
      spec.failures.mttr_minutes = 5.0;
      spec.failures.seed = env.seed + 1;
    }
    const RunMetrics m = run_standard_scenario(spec);
    report.add_run("dsp-mtbf=" +
                       (mtbf_hours == 0.0 ? std::string("none")
                                          : fmt(mtbf_hours, 1) + "h"),
                   m);
    sweep.add_row({mtbf_hours == 0.0 ? "none" : fmt(mtbf_hours, 1),
                   fmt_count(static_cast<long long>(m.node_failures)),
                   fmt_count(static_cast<long long>(m.tasks_killed_by_failure)),
                   fmt(to_seconds(m.makespan)),
                   fmt(m.throughput_tasks_per_ms(), 4), fmt(m.work_lost_mi, 0)});
  }
  std::fputs(sweep.render().c_str(), stdout);
  std::fputs("\n", stdout);

  // ---- Policy comparison under a fixed failure plan --------------------
  // The recipe pins its own plan seed, so every policy sees the same
  // outage schedule (plan generation is deterministic per cluster + seed).
  Table cmp("preemption policies under MTBF=4h outages");
  cmp.set_header({"policy", "makespan(s)", "throughput(t/ms)", "tasks-killed",
                  "work-lost(MI)"});
  for (PolicyKind policy : {PolicyKind::kDsp, PolicyKind::kDspNoPp,
                            PolicyKind::kAmoeba, PolicyKind::kNatjam,
                            PolicyKind::kSrpt}) {
    ScenarioSpec spec = fig_scenario(ClusterProfile::kEc2, jobs_n, env);
    spec.policy = policy;
    spec.failures.kind = FailureRecipe::Kind::kOutages;
    spec.failures.mtbf_hours = 4.0;
    spec.failures.mttr_minutes = 5.0;
    spec.failures.seed = env.seed + 2;
    const RunMetrics m = run_standard_scenario(spec);
    report.add_run(std::string("mtbf4h-") + to_string(policy), m);
    cmp.add_row({to_string(policy), fmt(to_seconds(m.makespan)),
                 fmt(m.throughput_tasks_per_ms(), 4),
                 fmt_count(static_cast<long long>(m.tasks_killed_by_failure)),
                 fmt(m.work_lost_mi, 0)});
  }
  std::fputs(cmp.render().c_str(), stdout);
  std::fputs("\n", stdout);

  // ---- Straggler impact and mitigation ---------------------------------
  Table strag("DSP under stragglers (0.4x nodes), with/without mitigation");
  strag.set_header(
      {"straggler-load", "mitigation", "makespan(s)", "throughput(t/ms)"});
  struct Level {
    const char* name;
    SimTime mean_gap;
  };
  for (const Level& level : {Level{"none", 0}, Level{"light", 2 * kHour},
                             Level{"heavy", 30 * kMinute}}) {
    for (bool mitigate : {false, true}) {
      ScenarioSpec spec = fig_scenario(ClusterProfile::kEc2, jobs_n, env);
      spec.knobs.straggler_mitigation = mitigate;
      if (level.mean_gap > 0) {
        spec.failures.kind = FailureRecipe::Kind::kStragglers;
        spec.failures.mean_gap = level.mean_gap;
        spec.failures.mean_duration = 10 * kMinute;
        spec.failures.factor = 0.4;
        spec.failures.seed = env.seed + 3;
      }
      const RunMetrics m = run_standard_scenario(spec);
      strag.add_row({level.name, mitigate ? "on" : "off",
                     fmt(to_seconds(m.makespan)),
                     fmt(m.throughput_tasks_per_ms(), 4)});
      if (level.mean_gap == 0) break;  // identical with no stragglers
    }
  }
  std::fputs(strag.render().c_str(), stdout);
  report.write_if_requested(cli);
  return 0;
}
