// Trace replay: run any scheduler/preemption combination over a CSV trace.
//
//   $ ./trace_replay <trace.csv> [scheduler] [policy] [cluster] [n]
//
//     scheduler: dsp | aalo | tetris-simdep | tetris-nodep   (default dsp)
//     policy:    dsp | dsp-nopp | amoeba | natjam | srpt | none
//                                                            (default dsp)
//     cluster:   real | ec2 | uniform                        (default real)
//     n:         node count, 1 to 32768             (default profile's)
//
// The tokens are dsp_sweep's (sim/scenario.h), and the standard scenario
// factory builds the pair with the Table II settings. A bad token exits
// with status 2 and names it, and so does a trace with a task whose demand
// fits no node of the cluster (the Engine's message names the job, the
// task, its demand and the largest node capacity).
//
// Generate a compatible trace with the workload generator:
//   $ ./trace_replay --emit sample.csv 20 42   # 20 jobs, seed 42
// then replay it through different policies and compare.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/dsp_system.h"
#include "metrics/report.h"
#include "scenarios/standard.h"
#include "trace/stats.h"
#include "trace/trace_io.h"
#include "trace/workload.h"
#include "util/parse.h"

namespace {

using namespace dsp;

/// Parses argv[i] as a count in [lo, hi]; prints the token and returns
/// false when it is not one.
bool count_arg(char** argv, int i, const char* what, unsigned long long lo,
               unsigned long long hi, unsigned long long& out) {
  if (parse_count(argv[i], out) && out >= lo && out <= hi) return true;
  std::fprintf(stderr, "invalid %s '%s' (expected an integer from %llu to %llu)\n",
               what, argv[i], lo, hi);
  return false;
}

int emit_trace(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: trace_replay --emit <out.csv> [jobs] [seed]\n");
    return 2;
  }
  WorkloadConfig cfg;
  cfg.job_count = 20;
  cfg.task_scale = 0.05;
  unsigned long long n = 0;
  if (argc > 3) {
    if (!count_arg(argv, 3, "job count", 1, kInvalidJob, n)) return 2;
    cfg.job_count = static_cast<std::size_t>(n);
  }
  std::uint64_t seed = 42;
  if (argc > 4) {
    if (!count_arg(argv, 4, "seed", 0, UINT64_MAX, n)) return 2;
    seed = n;
  }
  const JobSet jobs = WorkloadGenerator(cfg, seed).generate();
  if (!write_trace_csv(argv[2], jobs)) {
    std::fprintf(stderr, "cannot write %s\n", argv[2]);
    return 1;
  }
  std::printf("wrote %zu jobs (%zu tasks) to %s\n", jobs.size(),
              total_tasks(jobs), argv[2]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--emit") == 0)
    return emit_trace(argc, argv);
  if (argc >= 3 && std::strcmp(argv[1], "--stats") == 0) {
    const TraceParseResult parsed = read_trace_csv(argv[2], kReferenceRate);
    if (!parsed.ok()) {
      for (const auto& e : parsed.errors)
        std::fprintf(stderr, "trace error: %s\n", e.c_str());
      return 1;
    }
    std::fputs(analyze_workload(parsed.jobs).render().c_str(), stdout);
    return 0;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: trace_replay <trace.csv> [scheduler] [policy] "
                 "[cluster] [n]\n       trace_replay --emit <out.csv> [jobs] "
                 "[seed]\n       trace_replay --stats <trace.csv>\n");
    return 2;
  }

  const char* sched_name = argc > 2 ? argv[2] : "dsp";
  const char* policy_name = argc > 3 ? argv[3] : "dsp";
  const char* cluster_name = argc > 4 ? argv[4] : "real";
  ScenarioSpec spec;
  if (!parse_sched_kind(sched_name, spec.sched)) {
    std::fprintf(stderr, "unknown scheduler '%s'\n", sched_name);
    return 2;
  }
  if (!parse_policy_kind(policy_name, spec.policy)) {
    std::fprintf(stderr, "unknown policy '%s'\n", policy_name);
    return 2;
  }
  if (!parse_cluster_profile(cluster_name, spec.cluster.profile)) {
    std::fprintf(stderr, "unknown cluster '%s'\n", cluster_name);
    return 2;
  }
  if (argc > 5) {
    unsigned long long n = 0;
    if (!count_arg(argv, 5, "node count", 1, ClusterSpec::kMaxNodes, n))
      return 2;
    spec.cluster.nodes = static_cast<std::size_t>(n);
  }
  const ClusterSpec cluster = make_cluster(spec.cluster);

  const TraceParseResult parsed = read_trace_csv(argv[1], cluster.mean_rate());
  if (!parsed.ok()) {
    for (const auto& e : parsed.errors)
      std::fprintf(stderr, "trace error: %s\n", e.c_str());
    return 1;
  }
  std::printf("loaded %zu jobs (%zu tasks) from %s\n", parsed.jobs.size(),
              total_tasks(parsed.jobs), argv[1]);

  const StandardScenarioFactory factory;
  const std::unique_ptr<Scheduler> scheduler = factory.make_scheduler(spec);
  const std::unique_ptr<PreemptionPolicy> policy = factory.make_policy(spec);
  EngineParams ep;
  ep.period = 1 * kMinute;
  ep.epoch = 10 * kSecond;
  RunMetrics m;
  try {
    m = simulate(cluster, parsed.jobs, *scheduler, policy.get(), ep);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "trace_replay: %s\n", e.what());
    return 2;
  }
  std::printf("%s + %s on %s(%zu):\n  %s\n", sched_name, policy_name,
              cluster_name, cluster.size(), summarize(m).c_str());
  return 0;
}
