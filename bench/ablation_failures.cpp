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
  const ScenarioSpec base = fig_scenario(ClusterProfile::kEc2, jobs_n, env);

  // One grid, three slices: the outage-rate sweep, the policy comparison
  // and the straggler levels, in the order their tables print.
  std::vector<ScenarioSpec> grid;
  const std::vector<double> mtbfs{0.0, 8.0, 4.0, 2.0, 1.0};
  for (const double mtbf_hours : mtbfs) {
    ScenarioSpec spec = base;
    if (mtbf_hours > 0.0) {
      spec.failures.kind = FailureRecipe::Kind::kOutages;
      spec.failures.mtbf_hours = mtbf_hours;
      spec.failures.seed = env.seed + 1;
    }
    grid.push_back(std::move(spec));
  }

  // The recipe pins its own plan seed, so every policy sees the same
  // outage schedule (plan generation is deterministic per cluster + seed).
  const std::vector<PolicyKind> policies{
      PolicyKind::kDsp, PolicyKind::kDspNoPp, PolicyKind::kAmoeba,
      PolicyKind::kNatjam, PolicyKind::kSrpt};
  for (const PolicyKind policy : policies) {
    ScenarioSpec spec = base;
    spec.policy = policy;
    spec.failures.kind = FailureRecipe::Kind::kOutages;
    spec.failures.mtbf_hours = 4.0;
    spec.failures.seed = env.seed + 2;
    grid.push_back(std::move(spec));
  }

  struct Level {
    const char* name;
    SimTime mean_gap;
  };
  std::vector<const char*> straggler_levels;  // one per straggler cell
  for (const Level& level : {Level{"none", 0}, Level{"light", 2 * kHour},
                             Level{"heavy", 30 * kMinute}}) {
    for (bool mitigate : {false, true}) {
      ScenarioSpec spec = base;
      spec.dsp.straggler_mitigation = mitigate;
      if (level.mean_gap > 0) {
        spec.failures.kind = FailureRecipe::Kind::kStragglers;
        spec.failures.mean_gap = level.mean_gap;
        spec.failures.seed = env.seed + 3;
      }
      grid.push_back(std::move(spec));
      straggler_levels.push_back(level.name);
      if (level.mean_gap == 0) break;  // identical with no stragglers
    }
  }

  const std::vector<RunMetrics> results =
      run_standard_grid(grid, env.grid_options()).metrics;
  std::size_t next = 0;  // the next unread cell of `results`

  // ---- Outage-rate sweep for DSP --------------------------------------
  Table sweep("DSP under increasing outage rates (300 jobs, EC2 profile)");
  sweep.set_header({"MTBF(h)", "failures", "tasks-killed", "makespan(s)",
                    "throughput(t/ms)", "work-lost(MI)"});
  for (const double mtbf_hours : mtbfs) {
    const RunMetrics& m = results[next++];
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
  Table cmp("preemption policies under MTBF=4h outages");
  cmp.set_header({"policy", "makespan(s)", "throughput(t/ms)", "tasks-killed",
                  "work-lost(MI)"});
  for (const PolicyKind policy : policies) {
    const RunMetrics& m = results[next++];
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
  for (const char* level : straggler_levels) {
    const bool mitigate = grid[next].dsp.straggler_mitigation;
    const RunMetrics& m = results[next++];
    strag.add_row({level, mitigate ? "on" : "off",
                   fmt(to_seconds(m.makespan)),
                   fmt(m.throughput_tasks_per_ms(), 4)});
  }
  std::fputs(strag.render().c_str(), stdout);
  return report.write_if_requested(cli) ? 0 : 1;
}
