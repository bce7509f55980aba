#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/metrics.h"
#include "util/env.h"
#include "util/log.h"
#include "util/parse.h"

namespace dsp::bench {
namespace {

[[noreturn]] void reject_env(const char* name, const std::string& value,
                             const char* wanted) {
  std::fprintf(stderr, "%s=\"%s\" is invalid: expected %s\n", name,
               value.c_str(), wanted);
  std::exit(2);
}

}  // namespace

BenchEnv BenchEnv::from_env() {
  BenchEnv env;
  const std::string scale = env_string("DSP_SCALE", "");
  if (!scale.empty() && !parse_positive(scale, env.scale))
    reject_env("DSP_SCALE", scale, "a finite number > 0");
  unsigned long long n = 0;
  const std::string seed = env_string("DSP_SEED", "");
  if (!seed.empty()) {
    if (!parse_count(seed, n))
      reject_env("DSP_SEED", seed, "an unsigned 64-bit integer");
    env.seed = n;
  }
  const std::string points = env_string("DSP_POINTS", "");
  if (!points.empty()) {
    if (!parse_count(points, n) || n < 1 || n > kMaxPoints)
      reject_env("DSP_POINTS", points, "an integer from 1 to 5");
    env.points = static_cast<std::size_t>(n);
  }
  const std::string threads = env_string("DSP_THREADS", "");
  if (!threads.empty()) {
    if (!parse_count(threads, n) || n < 1 ||
        n > std::numeric_limits<unsigned>::max())
      reject_env("DSP_THREADS", threads, "an integer from 1 to 4294967295");
    env.threads = static_cast<unsigned>(n);
  }
  return env;
}

ScenarioSpec fig_scenario(ClusterProfile profile, std::size_t jobs,
                          const BenchEnv& env) {
  ScenarioSpec spec;
  spec.name = std::string(to_string(profile)) + "-j" + std::to_string(jobs);
  spec.cluster.profile = profile;
  spec.workload.job_count = jobs;
  spec.workload.task_scale = env.scale;
  spec.seed = env.seed;
  return spec;
}

ScenarioSpec scheduler_scenario(SchedKind kind, ClusterProfile profile,
                                std::size_t jobs, const BenchEnv& env) {
  ScenarioSpec spec = fig_scenario(profile, jobs, env);
  spec.sched = kind;
  // Fig. 5 compares the *full* DSP system against scheduling-only
  // baselines: DSP keeps its online preemption; the baselines have none.
  spec.policy =
      kind == SchedKind::kDsp ? PolicyKind::kDsp : PolicyKind::kNone;
  return spec;
}

ScenarioSpec policy_scenario(PolicyKind kind, ClusterProfile profile,
                             std::size_t jobs, const BenchEnv& env) {
  ScenarioSpec spec = fig_scenario(profile, jobs, env);
  spec.sched = SchedKind::kDsp;  // DSP's initial schedule for every method
  spec.policy = kind;
  return spec;
}

void print_bench_header(const std::string& name, const BenchEnv& env) {
  std::printf("### %s  (DSP_SCALE=%g DSP_SEED=%llu DSP_POINTS=%zu)\n\n",
              name.c_str(), env.scale,
              static_cast<unsigned long long>(env.seed), env.points);
}

MetricSeries make_series(std::vector<std::string> methods,
                         std::vector<long long> xs,
                         const std::vector<RunMetrics>& results,
                         std::size_t first) {
  const std::size_t n_methods = methods.size();
  const std::size_t n_xs = xs.size();
  MetricSeries series(std::move(methods), std::move(xs));
  for (std::size_t x = 0; x < n_xs; ++x)
    for (std::size_t m = 0; m < n_methods; ++m)
      series.set(m, x, results.at(first + x * n_methods + m));
  return series;
}

BenchCli BenchCli::parse(int argc, char** argv) {
  BenchCli cli;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --json requires a path\n", argv[0]);
        cli.ok = false;
        return cli;
      }
      cli.json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json <path>]\n"
                   "  --json <path>  dump run metrics + the metrics "
                   "registry as JSON\n",
                   argv[0]);
      cli.ok = false;
      return cli;
    }
  }
  return cli;
}

BenchJsonReport::BenchJsonReport(std::string bench, BenchEnv env)
    : bench_(std::move(bench)), env_(env) {}

void BenchJsonReport::add_series(const std::string& name,
                                 const MetricSeries& series) {
  std::ostringstream os;
  write_json(os, series);
  series_.emplace_back(name, os.str());
}

void BenchJsonReport::add_run(const std::string& name,
                              const RunMetrics& metrics) {
  std::ostringstream os;
  write_json(os, metrics);
  runs_.emplace_back(name, os.str());
}

void BenchJsonReport::add_scalar(const std::string& name, double value) {
  scalars_.emplace_back(name, value);
}

bool BenchJsonReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << "{\"bench\":";
  obs::write_json_string(out, bench_);
  out << ",\"env\":{\"scale\":";
  obs::write_json_number(out, env_.scale);
  out << ",\"seed\":" << env_.seed << ",\"points\":" << env_.points << '}';
  out << ",\"series\":[";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (i) out << ',';
    out << "{\"name\":";
    obs::write_json_string(out, series_[i].first);
    out << ",\"data\":" << series_[i].second << '}';
  }
  out << "],\"runs\":[";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (i) out << ',';
    out << "{\"name\":";
    obs::write_json_string(out, runs_[i].first);
    out << ",\"metrics\":" << runs_[i].second << '}';
  }
  out << "],\"scalars\":{";
  for (std::size_t i = 0; i < scalars_.size(); ++i) {
    if (i) out << ',';
    obs::write_json_string(out, scalars_[i].first);
    out << ':';
    obs::write_json_number(out, scalars_[i].second);
  }
  out << "},\"registry\":";
  obs::default_registry().to_json(out);
  out << "}\n";
  // Closing flushes the buffer: a full disk shows up only here.
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

bool BenchJsonReport::write_if_requested(const BenchCli& cli) const {
  if (!cli.json_path.empty()) {
    if (!write(cli.json_path)) return false;
    std::printf("\nJSON report written to %s\n", cli.json_path.c_str());
  }
  return flush_stdout(bench_.c_str());
}

int run_preemption_figure(const char* figure, const char* bench_name,
                          ClusterProfile profile, const BenchCli& cli) {
  const BenchEnv env = BenchEnv::from_env();
  print_bench_header(std::string(figure) + ": preemption methods", env);

  const std::vector<PolicyKind> methods{PolicyKind::kDsp, PolicyKind::kDspNoPp,
                                        PolicyKind::kAmoeba, PolicyKind::kNatjam,
                                        PolicyKind::kSrpt};
  std::vector<ScenarioSpec> grid;
  for (const long long jobs : env.job_counts())
    for (const PolicyKind m : methods)
      grid.push_back(
          policy_scenario(m, profile, static_cast<std::size_t>(jobs), env));
  std::vector<std::string> names;
  for (const PolicyKind m : methods) names.emplace_back(to_string(m));
  const MetricSeries series =
      make_series(std::move(names), env.job_counts(),
                  run_standard_grid(grid, env.grid_options()).metrics);

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
  return report.write_if_requested(cli) ? 0 : 1;
}

}  // namespace dsp::bench
