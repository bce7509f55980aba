// google-benchmark micro-benchmarks for the hot paths: DAG analytics,
// priority computation, simplex pivoting, workload generation, and raw
// simulator event throughput.
//
// Supports `--json <path>` (in addition to the standard benchmark
// flags): per-benchmark real times are captured and written through
// BenchJsonReport as scalars named `<bench>_<args>_ns`, which is how the
// committed BENCH_hotpath.json baseline is produced (same filter as the
// ci.sh bench-diff stage): micro_bench --json bench/BENCH_hotpath.json
// --benchmark_filter='BM_Simplex|BM_Milp|BM_PriorityComputeJob|
// BM_ComputeAll|BM_EngineRun|BM_SweepGrid' (filter on one line).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/dsp_scheduler.h"
#include "core/ilp_model.h"
#include "lp/milp.h"
#include "core/dsp_system.h"
#include "core/priority.h"
#include "lp/simplex.h"
#include "obs/events.h"
#include "sim/engine.h"
#include "trace/workload.h"
#include "util/rng.h"

namespace dsp {
namespace {

Job make_bench_job(std::size_t tasks, std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.task_scale = static_cast<double>(tasks) / 1000.0;
  WorkloadGenerator gen(cfg, seed);
  return gen.make_job(0, JobSize::kMedium, 0);
}

// ---------------------------------------------------------------------

void BM_TaskGraphFinalize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    TaskGraph g(n);
    for (std::size_t e = 0; e < n * 2; ++e) {
      const auto a = static_cast<TaskIndex>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
      const auto b = static_cast<TaskIndex>(
          rng.uniform_int(a + 1, static_cast<std::int64_t>(n) - 1));
      g.add_edge(a, b);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(g.finalize());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TaskGraphFinalize)->Arg(100)->Arg(1000)->Arg(5000);

void BM_DependencyWeights(benchmark::State& state) {
  const Job job = make_bench_job(static_cast<std::size_t>(state.range(0)), 13);
  for (auto _ : state)
    benchmark::DoNotOptimize(DspScheduler::dependency_weights(job, 0.5));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(job.task_count()));
}
BENCHMARK(BM_DependencyWeights)->Arg(100)->Arg(1000);

void BM_DependsOnQuery(benchmark::State& state) {
  const Job job = make_bench_job(1000, 17);
  const TaskGraph& g = job.graph();
  Rng rng(19);
  for (auto _ : state) {
    const auto a = static_cast<TaskIndex>(
        rng.uniform_int(0, static_cast<std::int64_t>(job.task_count()) - 1));
    const auto b = static_cast<TaskIndex>(
        rng.uniform_int(0, static_cast<std::int64_t>(job.task_count()) - 1));
    benchmark::DoNotOptimize(a == b ? false : g.depends_on(a, b));
  }
}
BENCHMARK(BM_DependsOnQuery);

void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    WorkloadConfig cfg;
    cfg.job_count = static_cast<std::size_t>(state.range(0));
    cfg.task_scale = 0.05;
    WorkloadGenerator gen(cfg, 29);
    benchmark::DoNotOptimize(gen.generate());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Arg(10)->Arg(50);

void BM_SimplexSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  lp::Model m;
  for (int v = 0; v < n; ++v) m.add_var(0.0, 10.0, rng.uniform(-5.0, 5.0));
  for (int c = 0; c < n; ++c) {
    lp::LinearExpr e;
    for (int v = 0; v < n; ++v) e.add(v, rng.uniform(0.0, 3.0));
    m.add_constraint(std::move(e), lp::Sense::kLe, rng.uniform(5.0, 20.0));
  }
  lp::SimplexSolver solver;
  for (auto _ : state) benchmark::DoNotOptimize(solver.solve(m));
}
BENCHMARK(BM_SimplexSolve)->Arg(10)->Arg(30)->Arg(60);

void BM_SimplexSolveFlat(benchmark::State& state) {
  // Sparse model (~25% density) — the shape the flat tableau's
  // zero-coefficient skip and candidate-list pricing are built for.
  const int n = static_cast<int>(state.range(0));
  Rng rng(43);
  lp::Model m;
  for (int v = 0; v < n; ++v) m.add_var(0.0, 10.0, rng.uniform(-5.0, 5.0));
  for (int c = 0; c < n; ++c) {
    lp::LinearExpr e;
    e.add(c, rng.uniform(0.5, 3.0));  // anchor: no empty rows
    for (int v = 0; v < n; ++v)
      if (v != c && rng.uniform(0.0, 1.0) < 0.25)
        e.add(v, rng.uniform(0.5, 3.0));
    m.add_constraint(std::move(e), lp::Sense::kLe, rng.uniform(5.0, 20.0));
  }
  lp::SimplexSolver solver;
  for (auto _ : state) benchmark::DoNotOptimize(solver.solve(m));
}
BENCHMARK(BM_SimplexSolveFlat)->Arg(10)->Arg(30)->Arg(60)->Arg(120);

void BM_SimplexWarmRestart(benchmark::State& state) {
  // The branch-and-bound access pattern in isolation: solve once cold,
  // then repeatedly tighten one bound and re-solve from the stored
  // optimal basis (dual repair instead of Phase I + II from scratch).
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  lp::Model m;
  for (int v = 0; v < n; ++v) m.add_var(0.0, 10.0, rng.uniform(-5.0, 5.0));
  for (int c = 0; c < n; ++c) {
    lp::LinearExpr e;
    for (int v = 0; v < n; ++v) e.add(v, rng.uniform(0.0, 3.0));
    m.add_constraint(std::move(e), lp::Sense::kLe, rng.uniform(5.0, 20.0));
  }
  lp::BoundedSimplex bs(m);
  lp::Basis base;
  const lp::Solution cold = bs.solve(nullptr, &base);
  // Tighten past the optimal value of the first nonzero variable so the
  // warm solve has actual repair work.
  std::size_t var = 0;
  for (std::size_t v = 0; v < cold.x.size(); ++v)
    if (cold.x[v] > 0.5) var = v;
  const double cut = cold.x[var] * 0.5;
  for (auto _ : state) {
    lp::Basis warm = base;
    bs.set_var_bounds(static_cast<lp::VarId>(var), 0.0, cut);
    benchmark::DoNotOptimize(bs.solve(&warm, nullptr));
    bs.reset_bounds();
  }
}
BENCHMARK(BM_SimplexWarmRestart)->Arg(30)->Arg(60);

void BM_MilpSolve(benchmark::State& state) {
  // Full branch & bound over the paper's §III model on an instance whose
  // relaxation, load cuts included, is fractional (determinism_test pins
  // its search: 35 nodes warm, 38 cold). Arg toggles warm starting of
  // child nodes from the parent basis: 0 = every node cold (the reference
  // path), 1 = warm.
  IlpProblem p;
  p.machine_rates = {1.0, 1.4};
  p.tasks.resize(5);
  p.tasks[0].size_mi = 3.0;
  p.tasks[1].size_mi = 1.0;
  p.tasks[1].parents = {0};
  p.tasks[2].size_mi = 1.0;
  p.tasks[3].size_mi = 5.0;
  p.tasks[4].size_mi = 5.0;
  const lp::Model m = build_ilp_model(p, /*enforce_deadlines=*/true);
  lp::MilpSolver::Options o;
  o.warm_start = state.range(0) != 0;
  lp::MilpSolver solver(o);
  for (auto _ : state) benchmark::DoNotOptimize(solver.solve(m));
  state.SetItemsProcessed(state.iterations() * solver.last_nodes());
}
BENCHMARK(BM_MilpSolve)->Arg(0)->Arg(1);

void BM_PriorityComputeJob(benchmark::State& state) {
  // Full engine context so waiting/remaining queries are realistic.
  JobSet jobs;
  jobs.push_back(make_bench_job(static_cast<std::size_t>(state.range(0)), 37));
  DspScheduler sched;
  EngineParams ep;
  ep.period = kMaxTime / 4;  // never reschedule
  ep.epoch = kMaxTime / 4;
  Engine engine(ClusterSpec::ec2(4), std::move(jobs), sched, nullptr, ep);
  // Schedule manually by invoking the period logic through run? Instead,
  // compute priorities on the unstarted engine: states are kUnscheduled,
  // which exercises the same recursion with zero-cost leaves.
  DspParams params;
  DependencyPriority priority(params);
  std::vector<double> out(engine.total_task_count());
  for (auto _ : state) {
    priority.compute_job(engine, 0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(engine.total_task_count()));
}
BENCHMARK(BM_PriorityComputeJob)->Arg(100)->Arg(1000);

/// Runs the benchmark loop against a live mid-run engine: a preemption
/// policy that, on one chosen epoch, times repeated compute_all calls.
/// Every call recomputes every scheduled, unfinished job.
class ComputeAllBenchPolicy : public PreemptionPolicy {
 public:
  explicit ComputeAllBenchPolicy(benchmark::State& state)
      : state_(state), priority_(params_) {}
  const char* name() const override { return "ComputeAllBench"; }

  void on_epoch(Engine& engine) override {
    if (++epoch_ != 5) return;  // mid-run: queues and running sets are live
    std::vector<double> out;
    const auto range = priority_.compute_all(engine, out);  // size `out`
    for (auto _ : state_)
      benchmark::DoNotOptimize(priority_.compute_all(engine, out));
    state_.SetItemsProcessed(state_.iterations() *
                             static_cast<std::int64_t>(range.live_tasks));
  }

 private:
  benchmark::State& state_;
  DspParams params_;
  DependencyPriority priority_;
  int epoch_ = 0;
};

void BM_ComputeAllFullRecompute(benchmark::State& state) {
  WorkloadConfig cfg;
  cfg.job_count = static_cast<std::size_t>(state.range(0));
  cfg.task_scale = 0.02;
  cfg.min_arrival_rate = 30.0;
  cfg.max_arrival_rate = 50.0;
  const JobSet jobs = WorkloadGenerator(cfg, 47).generate();
  DspScheduler sched;
  ComputeAllBenchPolicy policy(state);
  EngineParams ep;
  ep.period = 1 * kSecond;
  ep.epoch = 500 * kMillisecond;
  Engine engine(ClusterSpec::ec2(6), jobs, sched, &policy, ep);
  engine.run();
}
BENCHMARK(BM_ComputeAllFullRecompute)->Arg(20)->Arg(60);

void BM_EventLogEmit(benchmark::State& state) {
  // Flight-recorder emit cost: range(0)==0 stamps seq only, ==1 also
  // appends to a JSONL sink (to the null device, so the cost measured is
  // formatting + buffered fwrite, not disk). The acceptance bar is that
  // recorder-on adds <5% to a fig8-style end-to-end run; at ~10^5 events
  // per run a sub-microsecond emit keeps it far below that.
  obs::EventLog log;
  if (state.range(0) != 0 && !log.open_sink("/dev/null")) {
    state.SkipWithError("cannot open /dev/null sink");
    return;
  }
  obs::Event e{.kind = obs::EventKind::kTaskDispatch,
               .job = 3,
               .task = 17,
               .node = 2,
               .a = 1.5};
  SimTime t = 0;
  for (auto _ : state) {
    e.time = ++t;
    log.emit(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLogEmit)->Arg(0)->Arg(1);

void BM_EndToEndSimulation(benchmark::State& state) {
  for (auto _ : state) {
    WorkloadConfig cfg;
    cfg.job_count = static_cast<std::size_t>(state.range(0));
    cfg.task_scale = 0.02;
    WorkloadGenerator gen(cfg, 41);
    DspSystem dsp;
    EngineParams ep;
    ep.period = 5 * kMinute;
    ep.epoch = 30 * kSecond;
    benchmark::DoNotOptimize(dsp.run(ClusterSpec::ec2(10), gen.generate(), ep));
  }
}
BENCHMARK(BM_EndToEndSimulation)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_EngineRun(benchmark::State& state) {
  // One scenario-layer run (the cost of a single dsp_sweep grid cell):
  // spec -> cluster + workload + policy pair -> Engine::run.
  for (auto _ : state) {
    ScenarioSpec spec;
    spec.name = "bm-engine-run";
    spec.cluster.profile = ClusterProfile::kEc2;
    spec.workload.job_count = static_cast<std::size_t>(state.range(0));
    spec.workload.task_scale = 0.02;
    spec.seed = 41;
    benchmark::DoNotOptimize(run_standard_scenario(spec));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineRun)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_SweepGrid(benchmark::State& state) {
  // A dsp_sweep-shaped grid fanned over parallel_for; Arg = workers.
  // The 4-worker point against the 1-worker point is the scaling check.
  std::vector<ScenarioSpec> grid;
  for (PolicyKind policy : {PolicyKind::kDsp, PolicyKind::kDspNoPp,
                            PolicyKind::kAmoeba, PolicyKind::kNatjam,
                            PolicyKind::kSrpt, PolicyKind::kNone}) {
    ScenarioSpec spec;
    spec.name = std::string("bm-sweep-") + to_string(policy);
    spec.cluster.profile = ClusterProfile::kEc2;
    spec.workload.job_count = 20;
    spec.workload.task_scale = 0.02;
    spec.policy = policy;
    spec.seed = 41;
    grid.push_back(std::move(spec));
  }
  GridOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(run_standard_grid(grid, options));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_SweepGrid)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// --json support
// ---------------------------------------------------------------------

/// Console reporter that also captures (name, adjusted real time) per
/// completed run for the JSON baseline.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      // GetAdjustedRealTime is in the run's display unit; normalize to ns.
      const double ns = run.GetAdjustedRealTime() * 1e9 /
                        benchmark::GetTimeUnitMultiplier(run.time_unit);
      captured.emplace_back(run.benchmark_name(), ns);
    }
    ConsoleReporter::ReportRuns(report);
  }
  std::vector<std::pair<std::string, double>> captured;
};

/// "BM_SimplexSolve/60" -> "BM_SimplexSolve_60": scalar keys must stay
/// addressable by json_check's dotted paths.
std::string scalar_key(std::string name) {
  for (char& c : name)
    if (c == '/' || c == '.' || c == ':') c = '_';
  return name + "_ns";
}

}  // namespace
}  // namespace dsp

int main(int argc, char** argv) {
  // Extract --json <path> before benchmark::Initialize sees (and rejects)
  // it; everything else passes through to the library.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "micro_bench: --json requires a path\n");
        return 2;
      }
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());

  dsp::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    dsp::bench::BenchJsonReport report("micro", dsp::bench::BenchEnv{});
    for (const auto& [name, ns] : reporter.captured)
      report.add_scalar(dsp::scalar_key(name), ns);
    if (!report.write(json_path)) return 1;
  }
  return 0;
}
