#include "workloads.h"

#include "util/rng.h"

namespace perfbench {

namespace {

// Sizes. Each simulation workload splits its jobs over several scenarios
// with seeds derived from the benchmark seed: one seed's workload can be
// much cheaper or dearer to simulate than another's, and averaging over
// independent workloads keeps a run's host time steady across seeds.
constexpr int kDspEc2Scenarios = 6;
constexpr std::size_t kDspEc2Jobs = 200;
constexpr double kDspEc2Scale = 0.1;

constexpr int kDspRealScenarios = 5;
constexpr std::size_t kDspRealJobs = 125;
constexpr double kDspRealScale = 0.3;

constexpr int kBaselineWorkloads = 3;
constexpr std::size_t kBaselineJobs = 120;
constexpr double kBaselineScale = 0.1;

// The arrival rate is drawn once per workload from [min, max]; a wide
// range makes host time a draw over seeds, so it is pinned to the middle
// of the paper's 2-5 jobs/minute.
constexpr double kArrivalsPerMinute = 3.5;

// Exact branch and bound on 5-6 task instances is heavy-tailed (0.1-10 s
// per instance against a median of a few ms), so a sum over a handful of
// them is a lottery over seeds. Many 4-task, 2-machine instances load the
// same solver paths with a steady total.
constexpr int kIlpInstances = 1000;
constexpr int kIlpTasks = 4;
constexpr int kIlpMachines = 2;

dsp::ScenarioSpec scenario(std::string name, dsp::ClusterProfile profile,
                           std::size_t jobs, double scale, std::uint64_t seed,
                           dsp::SchedKind sched, dsp::PolicyKind policy) {
  dsp::ScenarioSpec spec;
  spec.name = std::move(name);
  spec.cluster.profile = profile;  // paper node counts: 30 EC2, 50 real
  spec.workload.job_count = jobs;
  spec.workload.task_scale = scale;
  spec.workload.min_arrival_rate = kArrivalsPerMinute;
  spec.workload.max_arrival_rate = kArrivalsPerMinute;
  spec.seed = seed;
  spec.sched = sched;
  spec.policy = policy;
  return spec;  // engine and knob defaults are the paper's Table II / §V
}

void dsp_pairs(Workload& w, const char* tag, dsp::ClusterProfile profile,
               int count, std::size_t jobs, double scale,
               std::uint64_t seed) {
  for (int i = 0; i < count; ++i) {
    const std::string name = std::string(tag) + "-" + std::to_string(i);
    w.scenarios.push_back(scenario(name, profile, jobs, scale,
                                   dsp::scenario_seed(seed, name),
                                   dsp::SchedKind::kDsp,
                                   dsp::PolicyKind::kDsp));
  }
}

void baselines(Workload& w, std::uint64_t seed) {
  struct Method {
    const char* tag;
    dsp::SchedKind sched;
    dsp::PolicyKind policy;
  };
  // Fig. 5's scheduling-only baselines, then Fig. 7's preemption
  // baselines on DSP's schedule.
  const Method methods[] = {
      {"aalo", dsp::SchedKind::kAalo, dsp::PolicyKind::kNone},
      {"tetris-simdep", dsp::SchedKind::kTetrisSimDep, dsp::PolicyKind::kNone},
      {"tetris-nodep", dsp::SchedKind::kTetrisNoDep, dsp::PolicyKind::kNone},
      {"amoeba", dsp::SchedKind::kDsp, dsp::PolicyKind::kAmoeba},
      {"natjam", dsp::SchedKind::kDsp, dsp::PolicyKind::kNatjam},
      {"srpt", dsp::SchedKind::kDsp, dsp::PolicyKind::kSrpt},
  };
  for (int i = 0; i < kBaselineWorkloads; ++i) {
    // Every method of one group replays the same jobs, as in the paper.
    const std::string group = "ec2-" + std::to_string(i);
    const std::uint64_t group_seed = dsp::scenario_seed(seed, group);
    for (const Method& m : methods) {
      w.scenarios.push_back(scenario(group + "-" + m.tag,
                                     dsp::ClusterProfile::kEc2, kBaselineJobs,
                                     kBaselineScale, group_seed, m.sched,
                                     m.policy));
    }
  }
}

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

}  // namespace

bool make_workload(std::string_view name, std::uint64_t seed, Workload& out) {
  out = Workload{};
  out.name = std::string(name);
  if (name == "dsp_ec2") {
    dsp_pairs(out, "dsp-ec2", dsp::ClusterProfile::kEc2, kDspEc2Scenarios,
              kDspEc2Jobs, kDspEc2Scale, seed);
  } else if (name == "dsp_real") {
    dsp_pairs(out, "dsp-real", dsp::ClusterProfile::kRealCluster,
              kDspRealScenarios, kDspRealJobs, kDspRealScale, seed);
  } else if (name == "baselines_ec2") {
    baselines(out, seed);
  } else if (name == "ilp_small") {
    out.ilp = true;
  } else {
    return false;
  }
  return true;
}

std::vector<dsp::IlpProblem> make_ilp_instances(std::uint64_t seed) {
  dsp::Rng rng(seed);
  std::vector<dsp::IlpProblem> instances;
  for (int i = 0; i < kIlpInstances; ++i)
    instances.push_back(random_instance(rng, kIlpTasks, kIlpMachines));
  return instances;
}

bool is_dsp_policy(const dsp::ScenarioSpec& spec) {
  return spec.policy == dsp::PolicyKind::kDsp ||
         spec.policy == dsp::PolicyKind::kDspNoPp;
}

}  // namespace perfbench
