// Tests for DSP's offline scheduler (checked against the exact §III ILP on
// small instances) and the Tetris/Aalo baseline schedulers.
#include <gtest/gtest.h>

#include <set>

#include "baselines/aalo.h"
#include "baselines/tetris.h"
#include "core/dsp_scheduler.h"
#include "core/dsp_system.h"
#include "core/ilp_model.h"
#include "test_util.h"
#include "trace/workload.h"

namespace dsp {
namespace {

using testing::make_chain_job;
using testing::make_fig3_job;
using testing::make_independent_job;

ClusterSpec small_cluster(std::size_t n = 2, int slots = 2) {
  return ClusterSpec::uniform(n, 1800.0, 2.0, slots);
}

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

JobSet tiny_workload(std::size_t jobs, std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.job_count = jobs;
  cfg.task_scale = 0.01;
  cfg.cpu_max = 2.0;  // fit the 2-slot uniform test nodes
  cfg.mem_max = 1.8;
  return WorkloadGenerator(cfg, seed).generate();
}

// ---------------------------------------------------------------------
// Dependency weights (ranking)
// ---------------------------------------------------------------------

TEST(DependencyWeightTest, LeavesWeighOne) {
  const Job job = make_chain_job(0, 3, 100.0);
  const auto w = DspScheduler::dependency_weights(job, 0.5);
  EXPECT_DOUBLE_EQ(w[2], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 1.0 + 1.5 * 1.0);
  EXPECT_DOUBLE_EQ(w[0], 1.0 + 1.5 * w[1]);
}

TEST(DependencyWeightTest, Fig3Ordering) {
  // The ranking behind the heuristic must reproduce the Fig. 3 ordering:
  // W(T11) > W(T6) > W(T1).
  const Job job = make_fig3_job(0);
  const auto w = DspScheduler::dependency_weights(job, 0.5);
  EXPECT_GT(w[11], w[5]);
  EXPECT_GT(w[5], w[0]);
}

TEST(DependencyWeightTest, MoreChildrenMoreWeight) {
  Job a(0, 3);
  Job b(1, 3);
  for (TaskIndex t = 0; t < 3; ++t) {
    a.task(t).size_mi = b.task(t).size_mi = 1.0;
    a.task(t).demand = b.task(t).demand = Resources{1, 1, 0, 0};
  }
  a.add_dependency(0, 1);  // one child
  b.add_dependency(0, 1);  // two children
  b.add_dependency(0, 2);
  ASSERT_TRUE(a.finalize(1000.0));
  ASSERT_TRUE(b.finalize(1000.0));
  EXPECT_GT(DspScheduler::dependency_weights(b, 0.5)[0],
            DspScheduler::dependency_weights(a, 0.5)[0]);
}

// ---------------------------------------------------------------------
// Heuristic scheduling through the engine
// ---------------------------------------------------------------------

TEST(DspSchedulerTest, PlacesEveryTaskExactlyOnce) {
  JobSet jobs = tiny_workload(6, 43);
  const std::size_t expected = total_tasks(jobs);
  DspScheduler sched;
  Engine engine(small_cluster(3, 2), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, expected);
  EXPECT_EQ(m.jobs_finished, 6u);
}

TEST(DspSchedulerTest, HeuristicCompletesWithZeroDisorders) {
  JobSet jobs = tiny_workload(6, 47);
  DspScheduler sched;
  DspParams params;
  DspPreemption preempt(params);
  Engine engine(small_cluster(3, 2), std::move(jobs), sched, &preempt,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.disorders, 0u);
}

TEST(DspSchedulerTest, ParallelismBeatsSerialExecution) {
  // 8 independent 1 s tasks on 4 nodes x 2 slots: heuristic must achieve
  // the 1 s optimum (perfect spread).
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 8, 1000.0));
  DspScheduler sched;
  Engine engine(small_cluster(4, 2), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.run().makespan, 1 * kSecond);
}

TEST(DspSchedulerTest, PrefersFasterNodes) {
  // Heterogeneous cluster: single task must land on the fast node.
  std::vector<NodeSpec> nodes;
  NodeSpec slow;
  slow.cpu_mips = 500.0;
  slow.mem_gb = 1.0;
  slow.capacity = Resources{4, 4, 720000, 1000};
  slow.slots = 4;
  NodeSpec fast = slow;
  fast.cpu_mips = 4000.0;
  nodes.push_back(slow);
  nodes.push_back(fast);
  ClusterSpec cluster(std::move(nodes));

  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 2000.0));
  DspScheduler sched;
  Engine engine(cluster, std::move(jobs), sched, nullptr, fast_params());
  const RunMetrics m = engine.run();
  // Fast node rate: 0.5*4000 + 0.5*1*100 = 2050 MIPS -> < 1 s.
  EXPECT_LT(m.makespan, from_seconds(1.0));
}

TEST(DspSchedulerTest, PlannedStartsRespectDependencies) {
  // Capture placements: a child's planned start must not precede its
  // parent's planned start.
  JobSet jobs;
  jobs.push_back(make_fig3_job(0, 5000.0, 0, 30 * kMinute));
  class CapturingDsp : public DspScheduler {
   public:
    std::vector<TaskPlacement> schedule(const std::vector<JobId>& pending,
                                        Engine& engine) override {
      auto result = DspScheduler::schedule(pending, engine);
      captured = result;
      engine_ptr = &engine;
      return result;
    }
    std::vector<TaskPlacement> captured;
    Engine* engine_ptr = nullptr;
  } sched;
  Engine engine(small_cluster(2, 2), std::move(jobs), sched, nullptr,
                fast_params());
  engine.run();
  ASSERT_FALSE(sched.captured.empty());
  std::vector<SimTime> start_of(19, kNoTime);
  for (const auto& p : sched.captured)
    start_of[sched.engine_ptr->index_of(p.task)] = p.planned_start;
  const Job job = make_fig3_job(0, 5000.0, 0, 30 * kMinute);
  for (TaskIndex t = 0; t < job.task_count(); ++t)
    for (TaskIndex c : job.graph().children(t))
      EXPECT_GE(start_of[c], start_of[t]);
}

TEST(DspSchedulerTest, ChainOnOneSlotTakesItsLength) {
  // A 4-task chain of 1 s tasks on a 1-node/1-slot cluster: 4 s.
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 4, 1000.0));
  DspScheduler sched;
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1), std::move(jobs),
                sched, nullptr, fast_params());
  EXPECT_EQ(engine.run().makespan, 4 * kSecond);
}

TEST(DspSchedulerTest, HeuristicNearExactOnSmallInstances) {
  // Cross-validation: on instances the MILP can solve, the heuristic's
  // realized makespan is within 1.6x of the exact optimum.
  const ClusterSpec cluster = ClusterSpec::uniform(2, 1800.0, 2.0, 1);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 7919);
    JobSet jobs;
    Job job(0, 5);
    for (TaskIndex t = 0; t < 5; ++t) {
      job.task(t).size_mi = rng.uniform(500.0, 3000.0);
      job.task(t).demand = Resources{1, 1, 0, 0};
    }
    job.add_dependency(0, 2);
    job.add_dependency(1, 3);
    if (rng.chance(0.5)) job.add_dependency(2, 4);
    ASSERT_TRUE(job.finalize(1000.0));

    // The same instance as an ILP: one machine per single-slot node.
    IlpProblem problem;
    for (std::size_t k = 0; k < cluster.size(); ++k)
      problem.machine_rates.push_back(cluster.rate(k));
    for (TaskIndex t = 0; t < job.task_count(); ++t) {
      IlpTask task;
      task.size_mi = job.task(t).size_mi;
      for (TaskIndex p : job.graph().parents(t))
        task.parents.push_back(static_cast<int>(p));
      problem.tasks.push_back(std::move(task));
    }
    const IlpScheduleResult exact = solve_ilp_schedule(problem);
    ASSERT_EQ(exact.status, lp::SolveStatus::kOptimal) << "seed " << seed;

    jobs.push_back(std::move(job));
    DspScheduler sched;
    Engine engine(cluster, std::move(jobs), sched, nullptr, fast_params());
    const SimTime heuristic = engine.run().makespan;
    EXPECT_LE(heuristic, from_seconds(exact.makespan_s) * 16 / 10 + kSecond)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Tetris
// ---------------------------------------------------------------------

TEST(TetrisTest, AlignmentScoreFavorsComplementaryTasks) {
  const Resources cap{4, 16, 100, 100};
  const Resources avail{4, 2, 100, 100};  // memory nearly exhausted
  const Resources cpu_heavy{3, 0.5, 0, 0};
  const Resources mem_heavy{0.5, 3, 0, 0};
  EXPECT_GT(TetrisScheduler::alignment(avail, cpu_heavy, cap),
            TetrisScheduler::alignment(avail, mem_heavy, cap));
}

TEST(TetrisTest, BothVariantsCompleteWorkload) {
  for (auto dep : {TetrisScheduler::Dependency::kNone,
                   TetrisScheduler::Dependency::kSimple}) {
    JobSet jobs = tiny_workload(4, 59);
    const std::size_t expected = total_tasks(jobs);
    TetrisScheduler sched(dep);
    Engine engine(small_cluster(3, 2), std::move(jobs), sched, nullptr,
                  fast_params());
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.tasks_finished, expected);
  }
}

TEST(TetrisTest, SimpleDependencyVariantHasNoDisorders) {
  JobSet jobs = tiny_workload(4, 61);
  TetrisScheduler sched(TetrisScheduler::Dependency::kSimple);
  Engine engine(small_cluster(3, 2), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.run().disorders, 0u);
}

TEST(TetrisTest, BlindVariantAccumulatesDisorders) {
  // Chains on a single node force the blind packer into unready picks.
  JobSet jobs;
  for (JobId j = 0; j < 4; ++j)
    jobs.push_back(make_chain_job(j, 6, 4000.0, 0));
  TetrisScheduler sched(TetrisScheduler::Dependency::kNone);
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 2), std::move(jobs), sched,
                nullptr, fast_params());
  EXPECT_GT(engine.run().disorders, 0u);
}

/// Wraps a TetrisScheduler and checks, at every dispatch, that its pick
/// is the first maximum of alignment() over the non-excluded, fitting
/// entries that are not launch-blocked (W/oDep scans the whole queue) or
/// that are ready (W/SimDep). Readiness and blocks come from the task
/// record and launch-blocked flag, not the engine's compact state byte.
class ArgmaxCheck : public Scheduler {
 public:
  explicit ArgmaxCheck(TetrisScheduler::Dependency dep)
      : inner_(dep), simple_(dep == TetrisScheduler::Dependency::kSimple) {}
  const char* name() const override { return inner_.name(); }
  std::vector<TaskPlacement> schedule(const std::vector<JobId>& jobs,
                                      Engine& engine) override {
    return inner_.schedule(jobs, engine);
  }
  bool hoards_slots() const override { return inner_.hoards_slots(); }
  Gid select_next(int node, Engine& engine,
                  const std::vector<std::uint8_t>& excluded) override {
    const Gid got = inner_.select_next(node, engine, excluded);
    const TaskRuntime& tasks = engine.task_runtime();
    const Resources& avail = engine.available(node);
    const Resources& cap =
        engine.cluster().node(static_cast<std::size_t>(node)).capacity;
    Gid best = kInvalidGid;
    double best_score = -1.0;
    bool tied = false;
    for (Gid g : engine.waiting(node)) {
      const bool ready = tasks.rt(g).unfinished_parents == 0;
      if (excluded[g]) continue;
      if (simple_ ? !ready : tasks.launch_blocked_flag(g) && !ready) continue;
      const Resources& demand = engine.task_info(g).demand;
      if (!avail.fits(demand)) continue;
      const double score = TetrisScheduler::alignment(avail, demand, cap);
      if (score > best_score) {
        best_score = score;
        best = g;
        tied = false;
      } else if (score == best_score) {
        tied = true;
      }
    }
    ++calls;
    if (tied) ++tied_calls;
    if (got != best) ++mismatches;
    return got;
  }

  std::uint64_t calls = 0;
  std::uint64_t tied_calls = 0;  ///< Calls where the maximum was shared.
  std::uint64_t mismatches = 0;

 private:
  TetrisScheduler inner_;
  bool simple_;
};

TEST(TetrisTest, SelectNextIsTheAlignmentArgmax) {
  // Narrow demand ranges clamp many tasks to the same (cpu, mem), so the
  // maximum is often shared and the first-maximum tie-break is tested.
  WorkloadConfig cfg;
  cfg.job_count = 12;
  cfg.task_scale = 0.02;
  cfg.cpu_min = 0.5;
  cfg.cpu_max = 1.0;
  cfg.mem_min = 0.5;
  cfg.mem_max = 1.0;
  cfg.min_arrival_rate = 20.0;  // contention: queues stay deep
  cfg.max_arrival_rate = 30.0;
  const JobSet jobs = WorkloadGenerator(cfg, 67).generate();
  for (auto dep : {TetrisScheduler::Dependency::kNone,
                   TetrisScheduler::Dependency::kSimple}) {
    ArgmaxCheck check(dep);
    SCOPED_TRACE(check.name());
    Engine engine(ClusterSpec::ec2(4), jobs, check, nullptr, fast_params());
    EXPECT_EQ(engine.run().tasks_finished, total_tasks(jobs));
    EXPECT_GT(check.calls, 0u);
    EXPECT_GT(check.tied_calls, 0u);
    EXPECT_EQ(check.mismatches, 0u);
  }
}

TEST(TetrisTest, Names) {
  EXPECT_STREQ(TetrisScheduler(TetrisScheduler::Dependency::kNone).name(),
               "TetrisW/oDep");
  EXPECT_STREQ(TetrisScheduler(TetrisScheduler::Dependency::kSimple).name(),
               "TetrisW/SimDep");
}

// ---------------------------------------------------------------------
// Aalo
// ---------------------------------------------------------------------

TEST(AaloTest, QueueLevelsEscalateWithService) {
  const double first = kAaloFirstThresholdMi;
  const double second = first * kAaloThresholdFactor;
  EXPECT_EQ(AaloScheduler::queue_level(0.0), 0);
  EXPECT_EQ(AaloScheduler::queue_level(0.99 * first), 0);
  EXPECT_EQ(AaloScheduler::queue_level(first), 1);
  EXPECT_EQ(AaloScheduler::queue_level(0.99 * second), 1);
  EXPECT_EQ(AaloScheduler::queue_level(second), 2);
  // Clamps at the last queue.
  EXPECT_EQ(AaloScheduler::queue_level(1.0e30), kAaloQueueCount - 1);
}

TEST(AaloTest, CompletesWorkloadWithoutDisorders) {
  JobSet jobs = tiny_workload(5, 67);
  const std::size_t expected = total_tasks(jobs);
  AaloScheduler sched;
  Engine engine(small_cluster(3, 2), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, expected);
  EXPECT_EQ(m.disorders, 0u);
}

TEST(AaloTest, FreshJobOutranksServicedJob) {
  // Job 0 is large and gets serviced first; when job 1 arrives later, its
  // level-0 tasks must be dispatched ahead of job 0's remaining tasks.
  // Each of job 0's tasks is larger than queue 0's ceiling, so job 0
  // demotes after its first task.
  const double big_mi = 1.5 * kAaloFirstThresholdMi;
  const double big_s = big_mi / 1800.0;
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 6, big_mi, 0));
  jobs.push_back(make_independent_job(1, 2, 1000.0, from_seconds(1.5)));
  AaloScheduler sched;
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1), std::move(jobs), sched,
                nullptr, fast_params());
  const RunMetrics m = engine.run();
  ASSERT_EQ(m.job_waiting_s.size(), 2u);
  // The small job (index 1 completes first -> first waiting entry) waits
  // out job 0's first task, not all six.
  EXPECT_LT(m.job_waiting_s.front(), 2.0 * big_s);
}

}  // namespace
}  // namespace dsp
