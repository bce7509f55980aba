// Failure drill: DSP riding through node outages and stragglers.
//
// Submits four jobs at once (two ETL ingests, a training sweep and an
// urgent report), injects node failures and a straggler, and shows
// checkpoint-restart keeping the work loss near zero while the
// deadline-aware preemption still lands the urgent report job on time.
//
//   $ ./failure_drill
#include <cstdio>
#include <memory>

#include "core/dsp_system.h"
#include "metrics/report.h"
#include "obs/events.h"
#include "sim/failures.h"
#include "sim/recorder.h"
#include "trace/workload.h"

namespace {

using namespace dsp;

JobSet build_jobs() {
  WorkloadConfig cfg;
  cfg.task_scale = 0.03;
  WorkloadGenerator gen(cfg, 17);
  JobSet jobs;
  // ETL stage: two medium ingest jobs.
  jobs.push_back(gen.make_job(0, JobSize::kMedium, 0));
  jobs.push_back(gen.make_job(1, JobSize::kMedium, 0));
  // Training sweep: one large job.
  jobs.push_back(gen.make_job(2, JobSize::kLarge, 0));
  // Report: small, urgent.
  jobs.push_back(gen.make_job(3, JobSize::kSmall, 0));
  return jobs;
}

}  // namespace

int main() {
  const ClusterSpec cluster = ClusterSpec::ec2(10);
  JobSet jobs = build_jobs();

  DspSystem dsp;
  EngineParams params;
  params.period = 30 * kSecond;
  params.epoch = 5 * kSecond;

  // The timeline recorder reads the engine's event stream. The Engine
  // reads no environment, so honour DSP_EVENT_LOG here (or feed only the
  // recorder when the variable is unset).
  std::unique_ptr<obs::EventLog> log = obs::EventLog::from_env();
  if (!log) log = std::make_unique<obs::EventLog>();
  TimelineRecorder recorder;
  log->set_consumer([&recorder](const obs::Event& e) { recorder.on_event(e); });
  Engine engine(cluster, std::move(jobs), dsp.scheduler(), &dsp.preemption(),
                params);
  engine.set_event_log(log.get());

  // Fault injection: two outages and one straggling node.
  FailurePlan plan;
  plan.add_outage(/*node=*/2, /*at=*/2 * kMinute, /*duration=*/3 * kMinute);
  plan.add_outage(/*node=*/7, /*at=*/10 * kMinute, /*duration=*/5 * kMinute);
  plan.add_slowdown(/*node=*/4, /*at=*/5 * kMinute, /*duration=*/10 * kMinute,
                    /*factor=*/0.4);
  engine.set_failure_plan(plan);

  const RunMetrics m = engine.run();

  std::printf("4 jobs (ETL x2, train, report) on 10 EC2 nodes,\n"
              "2 node outages + 1 straggler injected\n\n");
  std::printf("%s\n\n", summarize(m).c_str());
  std::printf("node failures survived : %llu\n",
              static_cast<unsigned long long>(m.node_failures));
  std::printf("tasks killed by faults : %llu\n",
              static_cast<unsigned long long>(m.tasks_killed_by_failure));
  std::printf("work lost (checkpointed): %.0f MI\n", m.work_lost_mi);
  std::printf("schedule rounds         : %zu\n", recorder.schedule_rounds());

  // Job completion order, from the recorded timeline.
  std::printf("\njob completions:\n");
  for (const auto& [t, j] : recorder.job_completions())
    std::printf("  t=%-10s job %u\n", format_time(t).c_str(), j);
  return m.jobs_finished == 4 ? 0 : 1;
}
