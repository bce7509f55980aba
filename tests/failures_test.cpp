// Tests for failure/straggler injection: outage semantics, checkpoint
// survival, straggler slowdowns, re-placement, and invariants under
// faults.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/dsp_system.h"
#include "obs/events.h"
#include "scenarios/standard.h"
#include "sim/engine.h"
#include "sim/failures.h"
#include "sim/invariants.h"
#include "sim/recorder.h"
#include "test_util.h"
#include "trace/workload.h"

namespace dsp {
namespace {

using testing::make_chain_job;
using testing::make_independent_job;
using testing::RoundRobinScheduler;

ClusterSpec nodes(std::size_t n, int slots = 1) {
  return ClusterSpec::uniform(n, 1800.0, 2.0, slots);
}

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

// ---------------------------------------------------------------------
// FailurePlan construction
// ---------------------------------------------------------------------

TEST(FailurePlanTest, OutageProducesFailAndRecover) {
  FailurePlan plan;
  plan.add_outage(2, 10 * kSecond, 5 * kSecond);
  const auto events = plan.sorted_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, NodeEvent::Kind::kFail);
  EXPECT_EQ(events[0].at, 10 * kSecond);
  EXPECT_EQ(events[1].kind, NodeEvent::Kind::kRecover);
  EXPECT_EQ(events[1].at, 15 * kSecond);
  EXPECT_EQ(plan.outage_count(), 1u);
}

TEST(FailurePlanTest, EventsSortedByTime) {
  FailurePlan plan;
  plan.add_outage(0, 20 * kSecond, kSecond);
  plan.add_slowdown(1, 5 * kSecond, kSecond, 0.5);
  const auto events = plan.sorted_events();
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].at, events[i - 1].at);
}

TEST(FailurePlanTest, RandomOutagesWithinHorizon) {
  const auto cluster = nodes(10);
  const FailurePlan plan =
      FailurePlan::random_outages(cluster, 10 * kHour, 2.0, 10.0, 7);
  EXPECT_GT(plan.outage_count(), 0u);
  for (const auto& e : plan.sorted_events()) {
    EXPECT_GE(e.node, 0);
    EXPECT_LT(e.node, 10);
    if (e.kind == NodeEvent::Kind::kFail) {
      EXPECT_LT(e.at, 10 * kHour);
    }
  }
}

TEST(FailurePlanTest, RandomStragglersUseFactor) {
  const auto cluster = nodes(5);
  const FailurePlan plan = FailurePlan::random_stragglers(
      cluster, 5 * kHour, 30 * kMinute, 5 * kMinute, 0.4, 11);
  EXPECT_GT(plan.slowdown_count(), 0u);
  for (const auto& e : plan.sorted_events())
    if (e.kind == NodeEvent::Kind::kSlowdown) {
      EXPECT_DOUBLE_EQ(e.factor, 0.4);
    }
}

TEST(FailurePlanTest, KindNames) {
  EXPECT_STREQ(to_string(NodeEvent::Kind::kFail), "fail");
  EXPECT_STREQ(to_string(NodeEvent::Kind::kRecover), "recover");
  EXPECT_STREQ(to_string(NodeEvent::Kind::kSlowdown), "slowdown");
  EXPECT_STREQ(to_string(NodeEvent::Kind::kRestoreSpeed), "restore-speed");
}

// ---------------------------------------------------------------------
// Outage semantics
// ---------------------------------------------------------------------

TEST(FailureTest, OutageKillsAndResumesWithCheckpoint) {
  // One 10 s task on a 1-node cluster; the node dies at 4 s for 3 s.
  // With surviving checkpoints: 4 s progress kept, resume at 7 s with
  // recovery overhead, finish at 7 + 0.3 + 6 = 13.3 s.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 10000.0));
  RoundRobinScheduler sched;
  EngineParams params = fast_params();
  Engine engine(nodes(1), std::move(jobs), sched, nullptr, params);
  FailurePlan plan;
  plan.add_outage(0, 4 * kSecond, 3 * kSecond);
  engine.set_failure_plan(plan);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.node_failures, 1u);
  EXPECT_EQ(m.tasks_killed_by_failure, 1u);
  EXPECT_EQ(m.tasks_finished, 1u);
  EXPECT_EQ(m.makespan, 7 * kSecond + kRecovery + kCtxSwitch + 6 * kSecond);
  EXPECT_DOUBLE_EQ(m.work_lost_mi, 0.0);
}

TEST(FailureTest, OutageWithoutCheckpointLosesProgress) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 10000.0));
  RoundRobinScheduler sched;
  EngineParams params = fast_params();
  params.checkpoints_survive_failure = false;
  Engine engine(nodes(1), std::move(jobs), sched, nullptr, params);
  FailurePlan plan;
  plan.add_outage(0, 4 * kSecond, 3 * kSecond);
  engine.set_failure_plan(plan);
  const RunMetrics m = engine.run();
  // All 4 s of progress lost: resume at 7 s, full 10 s re-run.
  EXPECT_EQ(m.makespan, 7 * kSecond + kRecovery + kCtxSwitch + 10 * kSecond);
  EXPECT_NEAR(m.work_lost_mi, 4000.0, 1.0);
}

TEST(FailureTest, QueuedTasksMigrateToLiveNodes) {
  // Two nodes; node 0 holds both tasks of a job and dies immediately for a
  // long time. The queued task must migrate to node 1 and finish long
  // before node 0 recovers.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 2, 2000.0));
  testing::PinnedScheduler sched(0);
  Engine engine(nodes(2, 1), std::move(jobs), sched, nullptr, fast_params());
  FailurePlan plan;
  plan.add_outage(0, 1 * kSecond, 10 * kMinute);
  engine.set_failure_plan(plan);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 2u);
  EXPECT_LT(m.makespan, kMinute);
}

TEST(FailureTest, DownNodeAcceptsNoWork) {
  // Node fails before the job is scheduled; all tasks must run elsewhere.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 4, 1000.0, 2 * kSecond));
  RoundRobinScheduler sched;
  TimelineRecorder recorder;
  Engine engine(nodes(2, 2), std::move(jobs), sched, nullptr, fast_params());
  const auto log = testing::recorder_log(recorder);
  engine.set_event_log(log.get());
  FailurePlan plan;
  plan.add_outage(0, 0, 10 * kMinute);
  engine.set_failure_plan(plan);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 4u);
  for (const auto& iv : recorder.intervals()) EXPECT_EQ(iv.node, 1);
}

TEST(FailureTest, TaskPlacedWhileEveryFittingNodeIsDownRunsAtRecovery) {
  // The only node is down from 0.5 s to 10.5 s, and a chain of two 1 s
  // tasks arrives at 1 s: the scheduling round at 1 s finds no live node
  // that fits. The tasks queue on the down node, as replace_waiting_task
  // leaves work there, and run back to back from its recovery.
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 2, 1000.0, 1 * kSecond));
  DspScheduler sched;
  EngineParams params = fast_params();
  params.horizon = 2 * kHour;
  Engine engine(nodes(1), std::move(jobs), sched, nullptr, params);
  FailurePlan plan;
  plan.add_outage(0, 500 * kMillisecond, 10 * kSecond);
  engine.set_failure_plan(plan);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.jobs_finished, 1u);
  EXPECT_EQ(m.tasks_finished, 2u);
  // From the arrival at 1 s to the recovery at 10.5 s, then 2 s of work.
  EXPECT_EQ(m.makespan, 11500 * kMillisecond);
}

TEST(FailureTest, PlanNamingANodeOutsideTheClusterIsRejected) {
  // Node 2 does not exist on a 2-node cluster: the plan is refused as a
  // whole, naming the node and the cluster size, and nothing is installed.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 1000.0));
  RoundRobinScheduler sched;
  const ClusterSpec cluster = nodes(2);
  Engine engine(cluster, std::move(jobs), sched, nullptr, fast_params());
  FailurePlan plan;
  plan.add_outage(0, 0, 10 * kMinute);
  plan.add_outage(static_cast<int>(cluster.size()), kSecond, kSecond);
  try {
    engine.set_failure_plan(plan);
    FAIL() << "set_failure_plan accepted node " << cluster.size();
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 2"), std::string::npos) << what;
    EXPECT_NE(what.find("2 nodes"), std::string::npos) << what;
  }
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.node_failures, 0u);
  EXPECT_EQ(m.tasks_finished, 1u);
}

TEST(FailureTest, NodeUpQueryReflectsState) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 60000.0));
  RoundRobinScheduler sched;
  class Probe : public PreemptionPolicy {
   public:
    const char* name() const override { return "Probe"; }
    void on_epoch(Engine& engine) override {
      if (engine.now() > 2 * kSecond && engine.now() < 4 * kSecond)
        saw_down = saw_down || !engine.node_up(1);
      if (engine.now() > 6 * kSecond)
        saw_up_again = saw_up_again || engine.node_up(1);
    }
    bool saw_down = false;
    bool saw_up_again = false;
  } probe;
  Engine engine(nodes(2), std::move(jobs), sched, &probe, fast_params());
  FailurePlan plan;
  plan.add_outage(1, 2 * kSecond, 3 * kSecond);
  engine.set_failure_plan(plan);
  engine.run();
  EXPECT_TRUE(probe.saw_down);
  EXPECT_TRUE(probe.saw_up_again);
}

// ---------------------------------------------------------------------
// Node-event edge cases
// ---------------------------------------------------------------------

TEST(FailureTest, NodeEventAtTimeZeroAppliesBeforeFirstDispatch) {
  // A slowdown starting at t = 0 must be in force when the first task is
  // dispatched (also at t = 0, the period tick coincident with arrival):
  // 4 s at 0.5x (2000 MI) + 8000 MI at full rate = 12 s, exactly as if
  // the task had started mid-slowdown.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 10000.0));
  RoundRobinScheduler sched;
  Engine engine(nodes(1), std::move(jobs), sched, nullptr, fast_params());
  FailurePlan plan;
  plan.add_slowdown(0, 0, 4 * kSecond, 0.5);
  engine.set_failure_plan(plan);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 1u);
  EXPECT_EQ(m.makespan, 12 * kSecond);
}

TEST(FailureTest, SimultaneousDownUpSameTimestamp) {
  // A zero-duration outage puts kFail and kRecover at the same timestamp.
  // Plan order is preserved for equal times (stable sort): the node fails
  // — killing its running task — and recovers in the same instant, so the
  // task resumes immediately with only the recovery overhead:
  // 4 s progress kept, resume at 4 s, finish at 4 + t^r + sigma + 6 s.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 10000.0));
  RoundRobinScheduler sched;
  EngineParams params = fast_params();
  Engine engine(nodes(1), std::move(jobs), sched, nullptr, params);
  FailurePlan plan;
  plan.add_outage(0, 4 * kSecond, 0);
  engine.set_failure_plan(plan);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.node_failures, 1u);
  EXPECT_EQ(m.tasks_killed_by_failure, 1u);
  EXPECT_EQ(m.tasks_finished, 1u);
  EXPECT_EQ(m.makespan, 4 * kSecond + kRecovery + kCtxSwitch + 6 * kSecond);
}

TEST(FailureTest, EventsTargetingAlreadyDownNodeAreNoOps) {
  // Overlapping outages on one node: the second kFail hits an already-down
  // node (no-op — no double kill, no double node_failures count) and its
  // paired kRecover at 5 s brings the node back early; the first outage's
  // recover at 12 s then hits an already-up node (no-op). Timeline:
  // fail@2 (2 s progress checkpointed), fail@4 ignored, recover@5 resumes,
  // finish at 5 + t^r + sigma + 8 s; recover@12 ignored.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 10000.0));
  RoundRobinScheduler sched;
  EngineParams params = fast_params();
  Engine engine(nodes(1), std::move(jobs), sched, nullptr, params);
  FailurePlan plan;
  plan.add_outage(0, 2 * kSecond, 10 * kSecond);
  plan.add_outage(0, 4 * kSecond, 1 * kSecond);
  engine.set_failure_plan(plan);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.node_failures, 1u);
  EXPECT_EQ(m.tasks_killed_by_failure, 1u);
  EXPECT_EQ(m.tasks_finished, 1u);
  EXPECT_EQ(m.makespan, 5 * kSecond + kRecovery + kCtxSwitch + 8 * kSecond);
}

// ---------------------------------------------------------------------
// Straggler semantics
// ---------------------------------------------------------------------

TEST(StragglerTest, SlowdownStretchesExecution) {
  // 10 s task; node runs at 0.5x during [2 s, 6 s): work done = 2 s full +
  // 4 s at half speed (= 2 s worth) + remaining 6 s at full = finish 12 s.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 10000.0));
  RoundRobinScheduler sched;
  Engine engine(nodes(1), std::move(jobs), sched, nullptr, fast_params());
  FailurePlan plan;
  plan.add_slowdown(0, 2 * kSecond, 4 * kSecond, 0.5);
  engine.set_failure_plan(plan);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 1u);
  EXPECT_EQ(m.makespan, 12 * kSecond);
}

TEST(StragglerTest, SpeedFactorVisible) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 60000.0));
  RoundRobinScheduler sched;
  class Probe : public PreemptionPolicy {
   public:
    const char* name() const override { return "Probe"; }
    void on_epoch(Engine& engine) override {
      if (engine.now() > 2 * kSecond && engine.now() < 5 * kSecond)
        min_factor = std::min(min_factor, engine.node_speed_factor(0));
    }
    double min_factor = 1.0;
  } probe;
  Engine engine(nodes(1), std::move(jobs), sched, &probe, fast_params());
  FailurePlan plan;
  plan.add_slowdown(0, 2 * kSecond, 10 * kSecond, 0.25);
  engine.set_failure_plan(plan);
  engine.run();
  EXPECT_DOUBLE_EQ(probe.min_factor, 0.25);
}

// ---------------------------------------------------------------------
// System behaviour under faults
// ---------------------------------------------------------------------

TEST(FailureTest, DspSurvivesRandomOutages) {
  WorkloadConfig cfg;
  cfg.job_count = 8;
  cfg.task_scale = 0.01;
  const JobSet jobs = WorkloadGenerator(cfg, 311).generate();
  const std::size_t expected = total_tasks(jobs);

  DspScheduler sched;
  DspPreemption policy{DspParams{}};
  const ClusterSpec cluster = ClusterSpec::ec2(6);
  Engine engine(cluster, jobs, sched, &policy, fast_params());
  engine.set_failure_plan(
      FailurePlan::random_outages(cluster, 4 * kHour, 0.5, 2.0, 313));
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, expected);
  EXPECT_GT(m.node_failures, 0u);
}

TEST(FailureTest, InvariantsHoldUnderFailures) {
  // Dependency and slot invariants must survive fault injection (work
  // conservation is exempt: failures legitimately re-execute work, and
  // stragglers change effective rates).
  WorkloadConfig cfg;
  cfg.job_count = 6;
  cfg.task_scale = 0.01;
  const JobSet jobs = WorkloadGenerator(cfg, 331).generate();

  DspScheduler sched;
  const ClusterSpec cluster = ClusterSpec::ec2(4);
  TimelineRecorder recorder;
  Engine engine(cluster, jobs, sched, nullptr, fast_params());
  const auto log = testing::recorder_log(recorder);
  engine.set_event_log(log.get());
  FailurePlan plan = FailurePlan::random_outages(cluster, 4 * kHour, 0.3, 2.0, 337);
  plan.add_slowdown(0, 30 * kSecond, 5 * kMinute, 0.5);
  engine.set_failure_plan(plan);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, total_tasks(jobs));

  InvariantOptions options;
  options.check_work_conservation = false;
  const auto problems = check_run_invariants(recorder, jobs, cluster, options);
  EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(StragglerTest, MitigationMigratesWorkOffSlowNodes) {
  // Node 0 degrades to 0.1x for a long stretch while node 1 stays
  // healthy. With mitigation, DSP vacates node 0 and the work finishes
  // much earlier than without.
  auto run_with = [](bool mitigate) {
    JobSet jobs;
    jobs.push_back(make_independent_job(0, 4, 30000.0));
    DspScheduler sched;
    DspParams params;
    params.straggler_mitigation = mitigate;
    DspPreemption policy(params);
    Engine engine(nodes(2, 2), std::move(jobs), sched, &policy, fast_params());
    FailurePlan plan;
    plan.add_slowdown(0, 5 * kSecond, 30 * kMinute, 0.1);
    engine.set_failure_plan(plan);
    return engine.run().makespan;
  };
  const SimTime with = run_with(true);
  const SimTime without = run_with(false);
  EXPECT_LT(with, without);
  EXPECT_LT(with, 5 * kMinute);
}

TEST(StragglerTest, EvictAndMigrateApi) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 2, 60000.0));
  RoundRobinScheduler sched;
  class Driver : public PreemptionPolicy {
   public:
    const char* name() const override { return "Driver"; }
    void on_epoch(Engine& engine) override {
      if (done_) return;
      // Evict the task running on node 0 and migrate it to node 1.
      if (!engine.running(0).empty()) {
        const Gid g = engine.running(0).front();
        evicted = engine.evict_running(g);
        // Double-evict must fail.
        evict_again = engine.evict_running(g);
        migrated = engine.migrate_task(g, 1);
        migrate_same = engine.migrate_task(g, 1);  // already there
        done_ = true;
      }
    }
    bool evicted = false, evict_again = true;
    bool migrated = false, migrate_same = true;

   private:
    bool done_ = false;
  } driver;
  Engine engine(nodes(2, 1), std::move(jobs), sched, &driver, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_TRUE(driver.evicted);
  EXPECT_FALSE(driver.evict_again);
  EXPECT_TRUE(driver.migrated);
  EXPECT_FALSE(driver.migrate_same);
  EXPECT_EQ(m.tasks_finished, 2u);
}

TEST(FailureTest, FailuresIncreaseMakespan) {
  WorkloadConfig cfg;
  cfg.job_count = 6;
  cfg.task_scale = 0.01;
  const JobSet jobs = WorkloadGenerator(cfg, 347).generate();
  const ClusterSpec cluster = ClusterSpec::ec2(4);

  auto run_with = [&](bool inject) {
    DspScheduler sched;
    DspPreemption policy{DspParams{}};
    Engine engine(cluster, jobs, sched, &policy, fast_params());
    if (inject) {
      FailurePlan heavy;
      for (int k = 0; k < 4; ++k)
        heavy.add_outage(k, (1 + k) * kMinute, 5 * kMinute);
      engine.set_failure_plan(heavy);
    }
    return engine.run().makespan;
  };
  EXPECT_GT(run_with(true), run_with(false));
}

// ---------------------------------------------------------------------
// Failure paths pinned bit for bit
// ---------------------------------------------------------------------

/// A run's JSONL event stream reduced to its FNV-1a-64 digest, the number
/// of task_migrate lines in it, and the run's metrics.
struct HashedRun {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t migrations = 0;
  RunMetrics metrics;
};

HashedRun run_hashed(const ScenarioSpec& spec) {
  HashedRun out;
  obs::EventLog log;
  std::string line;
  log.set_consumer([&](const obs::Event& e) {
    line.clear();
    obs::EventLog::append_jsonl(e, line);
    for (const char c : line) {
      out.digest ^= static_cast<unsigned char>(c);
      out.digest *= 0x100000001b3ULL;
    }
    if (e.kind == obs::EventKind::kTaskMigrate) ++out.migrations;
  });
  out.metrics = run_standard_scenario(spec, &log);
  return out;
}

/// Twelve jobs on six EC2 nodes under a dense random failure plan.
ScenarioSpec failure_spec(SchedKind sched, PolicyKind policy,
                          FailureRecipe::Kind kind) {
  ScenarioSpec spec;
  spec.name = "failure-path";
  spec.cluster.profile = ClusterProfile::kEc2;
  spec.cluster.nodes = 6;
  spec.workload.job_count = 12;
  spec.workload.task_scale = 0.02;
  spec.sched = sched;
  spec.policy = policy;
  spec.failures.kind = kind;
  spec.failures.mtbf_hours = 1.0;
  spec.failures.mean_gap = 20 * kMinute;
  return spec;
}

// No golden stream has an outage, a straggler or a lost checkpoint. These
// runs pin fail_node, replace_waiting_task, rebase_running and
// migrate_task: a change that moves one event, metric or decision on
// those paths fails here.

TEST(FailurePathTest, DspUnderOutagesIsPinned) {
  const HashedRun r = run_hashed(failure_spec(
      SchedKind::kDsp, PolicyKind::kDsp, FailureRecipe::Kind::kOutages));
  EXPECT_GT(r.metrics.node_failures, 0u);
  EXPECT_GT(r.metrics.tasks_killed_by_failure, 0u);
  EXPECT_EQ(r.digest, 0x34c5aeb45c4bd795ULL);
  EXPECT_EQ(r.metrics.work_lost_mi, 0x0p+0);
  EXPECT_EQ(r.metrics.overhead_s, 0x1.7666666666675p+4);
}

TEST(FailurePathTest, DspUnderOutagesWithoutCheckpointsIsPinned) {
  ScenarioSpec spec = failure_spec(SchedKind::kDsp, PolicyKind::kDsp,
                                   FailureRecipe::Kind::kOutages);
  spec.engine.checkpoints_survive_failure = false;
  const HashedRun r = run_hashed(spec);
  EXPECT_GT(r.metrics.node_failures, 0u);
  EXPECT_GT(r.metrics.tasks_killed_by_failure, 0u);
  EXPECT_EQ(r.digest, 0x4726ed66ae73e4a1ULL);
  EXPECT_EQ(r.metrics.work_lost_mi, 0x1.9da395a0c49bap+20);
  EXPECT_EQ(r.metrics.overhead_s, 0x1.91999999999aap+4);
}

TEST(FailurePathTest, DspStragglerMitigationIsPinned) {
  ScenarioSpec spec = failure_spec(SchedKind::kDsp, PolicyKind::kDsp,
                                   FailureRecipe::Kind::kStragglers);
  spec.dsp.straggler_mitigation = true;
  const HashedRun r = run_hashed(spec);
  EXPECT_GT(r.migrations, 0u);
  EXPECT_EQ(r.digest, 0x91b8f40c72180f81ULL);
  EXPECT_EQ(r.metrics.work_lost_mi, 0x0p+0);
  EXPECT_EQ(r.metrics.overhead_s, 0x1.88cccccccccdbp+4);
}

TEST(FailurePathTest, SrptOnTetrisUnderOutagesIsPinned) {
  const HashedRun r = run_hashed(failure_spec(SchedKind::kTetrisNoDep,
                                              PolicyKind::kSrpt,
                                              FailureRecipe::Kind::kOutages));
  EXPECT_GT(r.metrics.node_failures, 0u);
  EXPECT_GT(r.metrics.tasks_killed_by_failure, 0u);
  EXPECT_EQ(r.digest, 0x2f9fc5d0e1a7fe5bULL);
  EXPECT_EQ(r.metrics.work_lost_mi, 0x1.a4140110346ddp+23);
  EXPECT_EQ(r.metrics.overhead_s, 0x1.5ccccccccccfep+4);
}

}  // namespace
}  // namespace dsp
