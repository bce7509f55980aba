// Ablation: exact ILP vs relax-and-round vs a list-scheduling heuristic.
//
// On instances small enough for branch & bound, compares the makespan and
// solve time of the §III ILP solved exactly (core/ilp_model.h), the
// paper's relax-and-round concession, and a plain earliest-finish list
// pass. A solve that stops at the branch & bound node cap returns its best
// incumbent, not a proven optimum: its exact cell is marked '*' and the
// row is left out of both mean ratios.
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/ilp_model.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

dsp::IlpProblem random_instance(dsp::Rng& rng, int tasks, int machines) {
  dsp::IlpProblem p;
  for (int m = 0; m < machines; ++m)
    p.machine_rates.push_back(rng.uniform(800.0, 2000.0));
  for (int t = 0; t < tasks; ++t) {
    dsp::IlpTask task;
    task.size_mi = rng.uniform(500.0, 4000.0);
    if (t > 0 && rng.chance(0.6))
      task.parents.push_back(static_cast<int>(rng.uniform_int(0, t - 1)));
    p.tasks.push_back(std::move(task));
  }
  return p;
}

double heuristic_makespan(const dsp::IlpProblem& p) {
  // Greedy earliest finish in task-index order. DspScheduler places tasks
  // the same way but ranks them by dependency weight first.
  const std::size_t T = p.tasks.size();
  std::vector<double> machine_free(p.machine_rates.size(), 0.0);
  std::vector<double> finish(T, 0.0);
  double makespan = 0.0;
  for (std::size_t t = 0; t < T; ++t) {  // indices are topological by build
    double dep = 0.0;
    for (int parent : p.tasks[t].parents)
      dep = std::max(dep, finish[static_cast<std::size_t>(parent)]);
    double best = 1e300;
    std::size_t best_m = 0;
    for (std::size_t m = 0; m < p.machine_rates.size(); ++m) {
      const double eft = std::max(dep, machine_free[m]) +
                         p.tasks[t].size_mi / p.machine_rates[m];
      if (eft < best) {
        best = eft;
        best_m = m;
      }
    }
    machine_free[best_m] = best;
    finish[t] = best;
    makespan = std::max(makespan, best);
  }
  return makespan;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsp::bench;
  using namespace dsp;
  const auto cli = BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header("Ablation: exact ILP vs relax-round vs heuristic", env);
  BenchJsonReport report("ablation_ilp", env);

  Table table("schedule quality + solve time on random small instances");
  table.set_header({"instance", "exact(s)", "relax-round(s)", "heuristic(s)",
                    "rr/exact", "heur/exact", "exact-ms", "rr-ms"});

  Rng rng(env.seed);
  RunningStat rr_ratio, heur_ratio;
  int capped = 0;
  for (int i = 0; i < 8; ++i) {
    const int tasks = static_cast<int>(rng.uniform_int(4, 6));
    const int machines = static_cast<int>(rng.uniform_int(2, 3));
    const IlpProblem p = random_instance(rng, tasks, machines);

    const auto t0 = std::chrono::steady_clock::now();
    const IlpScheduleResult exact = solve_ilp_schedule(p);
    const auto t1 = std::chrono::steady_clock::now();
    const IlpScheduleResult rr = solve_relax_round(p);
    const auto t2 = std::chrono::steady_clock::now();
    const double heur = heuristic_makespan(p);

    const double exact_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double rr_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    const std::string instance =
        std::to_string(tasks) + "t/" + std::to_string(machines) + "m";
    if (!exact.ok() || !rr.ok()) {
      table.add_row({instance, lp::to_string(exact.status),
                     lp::to_string(rr.status), fmt(heur, 3), "-", "-",
                     fmt(exact_ms, 1), fmt(rr_ms, 2)});
      continue;
    }
    const bool at_cap = exact.status == lp::SolveStatus::kNodeLimit;
    if (at_cap) {
      ++capped;
    } else {
      rr_ratio.add(rr.makespan_s / exact.makespan_s);
      heur_ratio.add(heur / exact.makespan_s);
    }
    table.add_row({instance, fmt(exact.makespan_s, 3) + (at_cap ? "*" : ""),
                   fmt(rr.makespan_s, 3), fmt(heur, 3),
                   fmt(rr.makespan_s / exact.makespan_s, 3),
                   fmt(heur / exact.makespan_s, 3), fmt(exact_ms, 1),
                   fmt(rr_ms, 2)});
  }
  std::fputs(table.render().c_str(), stdout);
  if (capped > 0)
    std::printf("\n* %d instance(s) stopped at the branch & bound node cap: "
                "exact(s) is the best incumbent, not a proven optimum, and "
                "the row is left out of both means\n",
                capped);
  std::printf("\nmean ratio vs exact: relax-round %.3f, heuristic %.3f\n",
              rr_ratio.mean(), heur_ratio.mean());
  report.add_scalar("rr_over_exact_mean", rr_ratio.mean());
  report.add_scalar("heur_over_exact_mean", heur_ratio.mean());
  report.add_scalar("node_capped_instances", capped);
  return report.write_if_requested(cli) ? 0 : 1;
}
