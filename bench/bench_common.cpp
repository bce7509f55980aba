#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "util/env.h"
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
  return env;
}

JobSet make_workload(std::size_t jobs, double scale, std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.job_count = jobs;
  cfg.task_scale = scale;
  return WorkloadGenerator(cfg, seed).generate();
}

EngineParams paper_engine_params() {
  EngineParams p;
  p.period = 5 * kMinute;  // paper §V: "ran the scheduling periodically
                           // every 5mins"
  p.epoch = 30 * kSecond;
  return p;
}

ScenarioSpec fig_scenario(ClusterProfile profile, std::size_t jobs,
                          const BenchEnv& env) {
  ScenarioSpec spec;
  spec.name = std::string(to_string(profile)) + "-j" + std::to_string(jobs);
  spec.cluster.profile = profile;
  spec.workload.job_count = jobs;
  spec.workload.task_scale = env.scale;
  spec.engine = paper_engine_params();
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
    std::fprintf(stderr, "warning: cannot open %s for writing\n",
                 path.c_str());
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
  return out.good();
}

void BenchJsonReport::write_if_requested(const BenchCli& cli) const {
  if (cli.json_path.empty()) return;
  if (write(cli.json_path))
    std::printf("\nJSON report written to %s\n", cli.json_path.c_str());
}

}  // namespace dsp::bench
