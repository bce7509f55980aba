// Tests for cross-job dependencies (§VI future work): workflow edges
// between whole jobs gate the successor's tasks.
#include <gtest/gtest.h>

#include "core/dsp_system.h"
#include "sim/engine.h"
#include "sim/invariants.h"
#include "sim/recorder.h"
#include "test_util.h"

namespace dsp {
namespace {

using testing::make_independent_job;
using testing::RoundRobinScheduler;

ClusterSpec wide_cluster() { return ClusterSpec::uniform(2, 1800.0, 2.0, 4); }

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

TEST(WorkflowTest, SuccessorWaitsForPredecessor) {
  // Two 2-task jobs (1 s tasks), plenty of slots. Independently they run
  // in ~1 s; with job 0 -> job 1, job 1 starts only after job 0 completes.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 2, 1000.0));
  jobs.push_back(make_independent_job(1, 2, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(wide_cluster(), std::move(jobs), sched, nullptr, fast_params());
  ASSERT_TRUE(engine.add_job_dependency(0, 1));
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 4u);
  EXPECT_EQ(m.makespan, 2 * kSecond);  // serialized by the workflow edge
}

TEST(WorkflowTest, WithoutEdgeJobsOverlap) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 2, 1000.0));
  jobs.push_back(make_independent_job(1, 2, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(wide_cluster(), std::move(jobs), sched, nullptr, fast_params());
  EXPECT_EQ(engine.run().makespan, 1 * kSecond);
}

TEST(WorkflowTest, ChainOfThreeJobs) {
  JobSet jobs;
  for (JobId j = 0; j < 3; ++j)
    jobs.push_back(make_independent_job(j, 2, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(wide_cluster(), std::move(jobs), sched, nullptr, fast_params());
  ASSERT_TRUE(engine.add_job_dependency(0, 1));
  ASSERT_TRUE(engine.add_job_dependency(1, 2));
  EXPECT_EQ(engine.run().makespan, 3 * kSecond);
}

TEST(WorkflowTest, DiamondWorkflow) {
  // 0 -> {1, 2} -> 3: middle jobs overlap.
  JobSet jobs;
  for (JobId j = 0; j < 4; ++j)
    jobs.push_back(make_independent_job(j, 2, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(wide_cluster(), std::move(jobs), sched, nullptr, fast_params());
  ASSERT_TRUE(engine.add_job_dependency(0, 1));
  ASSERT_TRUE(engine.add_job_dependency(0, 2));
  ASSERT_TRUE(engine.add_job_dependency(1, 3));
  ASSERT_TRUE(engine.add_job_dependency(2, 3));
  EXPECT_EQ(engine.run().makespan, 3 * kSecond);
}

TEST(WorkflowTest, RejectsCycles) {
  JobSet jobs;
  for (JobId j = 0; j < 3; ++j)
    jobs.push_back(make_independent_job(j, 1, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(wide_cluster(), std::move(jobs), sched, nullptr, fast_params());
  EXPECT_TRUE(engine.add_job_dependency(0, 1));
  EXPECT_TRUE(engine.add_job_dependency(1, 2));
  EXPECT_FALSE(engine.add_job_dependency(2, 0));  // cycle
  EXPECT_FALSE(engine.add_job_dependency(1, 1));  // self-edge
  // Still completes (the cyclic edges were refused).
  EXPECT_EQ(engine.run().tasks_finished, 3u);
}

TEST(WorkflowTest, ReadinessReflectsJobGating) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 30000.0));
  jobs.push_back(make_independent_job(1, 1, 1000.0));
  RoundRobinScheduler sched;
  class Probe : public PreemptionPolicy {
   public:
    const char* name() const override { return "Probe"; }
    void on_epoch(Engine& engine) override {
      if (engine.now() < 10 * kSecond) {
        const Gid successor_task = engine.gid(1, 0);
        saw_blocked = saw_blocked || !engine.is_ready(successor_task);
        preds = std::max(preds, engine.unfinished_predecessor_jobs(1));
      }
    }
    bool saw_blocked = false;
    std::uint32_t preds = 0;
  } probe;
  Engine engine(wide_cluster(), std::move(jobs), sched, &probe, fast_params());
  ASSERT_TRUE(engine.add_job_dependency(0, 1));
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 2u);
  EXPECT_TRUE(probe.saw_blocked);
  EXPECT_EQ(probe.preds, 1u);
}

TEST(WorkflowTest, DspCompletesWorkflowsWithSoundTimeline) {
  JobSet jobs;
  for (JobId j = 0; j < 5; ++j)
    jobs.push_back(make_independent_job(j, 3, 2000.0, j * 100 * kMillisecond));
  DspScheduler sched;
  DspPreemption policy;
  TimelineRecorder recorder;
  Engine engine(wide_cluster(), jobs, sched, &policy, fast_params());
  const auto log = testing::recorder_log(recorder);
  engine.set_event_log(log.get());
  ASSERT_TRUE(engine.add_job_dependency(0, 2));
  ASSERT_TRUE(engine.add_job_dependency(1, 2));
  ASSERT_TRUE(engine.add_job_dependency(2, 4));
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 15u);
  EXPECT_EQ(m.disorders, 0u);

  const auto problems =
      check_run_invariants(recorder, jobs, wide_cluster());
  EXPECT_TRUE(problems.empty()) << problems.front();

  // Workflow order: job 2's first task starts after jobs 0 and 1 finish.
  SimTime job0_done = 0, job1_done = 0;
  for (const auto& [t, j] : recorder.job_completions()) {
    if (j == 0) job0_done = t;
    if (j == 1) job1_done = t;
  }
  SimTime job2_first = kMaxTime;
  for (TaskIndex t = 0; t < 3; ++t)
    job2_first = std::min(job2_first, recorder.first_run_start(engine.gid(2, t)));
  EXPECT_GE(job2_first, std::max(job0_done, job1_done));
}

}  // namespace
}  // namespace dsp
