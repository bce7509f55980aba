// Self-test of the benchmark's own instruments.
//
// For a small spec of every SchedKind x PolicyKind pair:
//   - the decorators forward name, hoards_slots and checkpoint_mode;
//   - the traced run (policies wrapped) and the untraced run both give
//     run_standard_scenario's RunMetrics field for field, wall time aside;
//   - traced and untraced runs give identical registry counts.
// Prints one line per pair and exits non-zero on any difference.
#include <cstdio>
#include <string>
#include <vector>

#include "layer_trace.h"
#include "scenarios/standard.h"

namespace {

using dsp::RunMetrics;

/// Names of the fields where `a` and `b` differ (sim_wall_s excluded).
std::vector<std::string> metric_diff(const RunMetrics& a, const RunMetrics& b) {
  std::vector<std::string> d;
  const auto cmp = [&d](const char* name, const auto& x, const auto& y) {
    if (!(x == y)) d.emplace_back(name);
  };
  cmp("makespan", a.makespan, b.makespan);
  cmp("tasks_finished", a.tasks_finished, b.tasks_finished);
  cmp("jobs_finished", a.jobs_finished, b.jobs_finished);
  cmp("jobs_met_deadline", a.jobs_met_deadline, b.jobs_met_deadline);
  cmp("disorders", a.disorders, b.disorders);
  cmp("job_waiting_s", a.job_waiting_s, b.job_waiting_s);
  cmp("preemptions", a.preemptions, b.preemptions);
  cmp("suppressed_preemptions", a.suppressed_preemptions,
      b.suppressed_preemptions);
  cmp("preempt_evaluations", a.preempt_evaluations, b.preempt_evaluations);
  cmp("preempt_blocked_dependency", a.preempt_blocked_dependency,
      b.preempt_blocked_dependency);
  cmp("preempt_no_victim", a.preempt_no_victim, b.preempt_no_victim);
  cmp("node_failures", a.node_failures, b.node_failures);
  cmp("tasks_killed_by_failure", a.tasks_killed_by_failure,
      b.tasks_killed_by_failure);
  cmp("work_lost_mi", a.work_lost_mi, b.work_lost_mi);
  cmp("locality_local", a.locality_local, b.locality_local);
  cmp("locality_remote", a.locality_remote, b.locality_remote);
  cmp("deadline_misses", a.deadline_misses, b.deadline_misses);
  cmp("slot_utilization", a.slot_utilization, b.slot_utilization);
  cmp("overhead_s", a.overhead_s, b.overhead_s);
  if (a.job_records.size() != b.job_records.size()) {
    d.emplace_back("job_records");
    return d;
  }
  for (std::size_t i = 0; i < a.job_records.size(); ++i) {
    const dsp::JobRecord& x = a.job_records[i];
    const dsp::JobRecord& y = b.job_records[i];
    if (x.id != y.id || x.size_class != y.size_class || x.tier != y.tier ||
        x.arrival != y.arrival || x.finish != y.finish ||
        x.mean_task_wait_s != y.mean_task_wait_s ||
        x.met_deadline != y.met_deadline) {
      d.emplace_back("job_records[" + std::to_string(i) + "]");
      break;
    }
  }
  return d;
}

}  // namespace

int run_selftest() {
  using namespace dsp;
  const SchedKind scheds[] = {SchedKind::kDsp, SchedKind::kAalo,
                              SchedKind::kTetrisSimDep,
                              SchedKind::kTetrisNoDep};
  const PolicyKind policies[] = {PolicyKind::kDsp,    PolicyKind::kDspNoPp,
                                 PolicyKind::kAmoeba, PolicyKind::kNatjam,
                                 PolicyKind::kSrpt,   PolicyKind::kNone};
  const StandardScenarioFactory standard;
  int failures = 0;
  for (const SchedKind sk : scheds) {
    for (const PolicyKind pk : policies) {
      ScenarioSpec spec;
      spec.name = std::string(to_string(sk)) + "+" + to_string(pk);
      spec.cluster.profile = ClusterProfile::kEc2;
      spec.workload.job_count = 40;
      spec.workload.task_scale = 0.05;
      spec.seed = 7;
      spec.sched = sk;
      spec.policy = pk;

      std::vector<std::string> problems;
      perfbench::CallRecorder recorder;
      const perfbench::BenchFactory traced_factory(standard, &recorder);
      const auto ref_s = standard.make_scheduler(spec);
      const auto got_s = traced_factory.make_scheduler(spec);
      if (std::string(ref_s->name()) != got_s->name() ||
          ref_s->hoards_slots() != got_s->hoards_slots())
        problems.emplace_back("scheduler decorator does not forward");
      const auto ref_p = standard.make_policy(spec);
      const auto got_p = traced_factory.make_policy(spec);
      if ((ref_p == nullptr) != (got_p == nullptr) ||
          (ref_p != nullptr &&
           (std::string(ref_p->name()) != got_p->name() ||
            ref_p->checkpoint_mode() != got_p->checkpoint_mode())))
        problems.emplace_back("policy decorator does not forward");

      const RunMetrics ref = run_standard_scenario(spec);
      const perfbench::ScenarioRun traced =
          perfbench::measure_scenario(spec, true);
      const perfbench::ScenarioRun untraced =
          perfbench::measure_scenario(spec, false);
      for (const std::string& f : metric_diff(ref, traced.metrics))
        problems.push_back("traced run differs in " + f);
      for (const std::string& f : metric_diff(ref, untraced.metrics))
        problems.push_back("untraced run differs in " + f);
      if (traced.events != untraced.events ||
          traced.priority_calls != untraced.priority_calls)
        problems.emplace_back("traced and untraced counts differ");
      if (ref.jobs_finished != spec.workload.job_count)
        problems.emplace_back("not every job finished");
      const auto calls = [&](perfbench::Call c) {
        return traced.calls.ledger(c).calls;
      };
      if (calls(perfbench::Call::kSchedule) == 0 ||
          calls(perfbench::Call::kSelectNext) == 0 ||
          (calls(perfbench::Call::kOnEpoch) == 0) != (pk == PolicyKind::kNone))
        problems.emplace_back("decorated calls were not all recorded");

      std::printf("%-4s %s\n", problems.empty() ? "ok" : "FAIL",
                  spec.name.c_str());
      for (const std::string& p : problems) std::printf("     %s\n", p.c_str());
      if (!problems.empty()) ++failures;
    }
  }
  std::printf("selftest: %d of %zu policy pairs failed\n", failures,
              std::size(scheds) * std::size(policies));
  return failures == 0 ? 0 : 1;
}
