// Simulator tests: cluster profiles, execution timing, dependency
// enforcement, preemption mechanics, checkpoint semantics, metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/cluster.h"
#include "sim/engine.h"
#include "test_util.h"
#include "util/log.h"

namespace dsp {
namespace {

using testing::kTestRate;
using testing::make_chain_job;
using testing::make_diamond_job;
using testing::make_independent_job;
using testing::NullPreemption;
using testing::PinnedScheduler;
using testing::RoundRobinScheduler;

// A uniform test cluster whose g(k) equals kTestRate exactly:
// theta1 * cpu_mips = 0.5 * 1800 = 900; theta2 * mem * 100 = 0.5 * 2 * 100
// = 100 -> 1000 MIPS.
ClusterSpec test_cluster(std::size_t n, int slots) {
  return ClusterSpec::uniform(n, 1800.0, 2.0, slots);
}

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

// ---------------------------------------------------------------------
// ClusterSpec
// ---------------------------------------------------------------------

TEST(ClusterTest, RateFollowsEquationOne) {
  const ClusterSpec c = test_cluster(3, 2);
  EXPECT_DOUBLE_EQ(c.rate(0), 1000.0);
  EXPECT_DOUBLE_EQ(c.mean_rate(), 1000.0);
  EXPECT_DOUBLE_EQ(c.max_rate(), 1000.0);
  EXPECT_EQ(c.total_slots(), 6);
}

TEST(ClusterTest, RealClusterProfile) {
  const ClusterSpec c = ClusterSpec::real_cluster();
  EXPECT_EQ(c.size(), 50u);
  EXPECT_EQ(c.node(0).slots, 4);
  EXPECT_DOUBLE_EQ(c.node(0).mem_gb, 16.0);
  EXPECT_GT(c.rate(0), 0.0);
}

TEST(ClusterTest, Ec2Profile) {
  const ClusterSpec c = ClusterSpec::ec2();
  EXPECT_EQ(c.size(), 30u);
  EXPECT_DOUBLE_EQ(c.node(0).cpu_mips, 2660.0);
  EXPECT_DOUBLE_EQ(c.node(0).mem_gb, 4.0);
  // The paper's real cluster is faster per node and has more nodes.
  const ClusterSpec real = ClusterSpec::real_cluster();
  EXPECT_GT(real.size() * static_cast<std::size_t>(real.node(0).slots),
            c.size() * static_cast<std::size_t>(c.node(0).slots));
}

TEST(ClusterTest, ValidateAcceptsWellFormedSpecs) {
  EXPECT_TRUE(test_cluster(3, 2).validate().empty());
  EXPECT_TRUE(ClusterSpec::real_cluster().validate().empty());
  EXPECT_TRUE(ClusterSpec::ec2().validate().empty());
  // A default-constructed (empty) spec is vacuously valid: no nodes, no
  // defects. The engine separately treats an empty cluster as zero rate.
  EXPECT_TRUE(ClusterSpec().validate().empty());
}

TEST(ClusterTest, ValidationRejectsNonPositiveSlots) {
  NodeSpec bad;
  bad.capacity = Resources{2.0, 4.0, 100.0, 100.0};
  bad.slots = 0;
  try {
    ClusterSpec spec({bad});
    FAIL() << "zero-slot node must be rejected";
  } catch (const std::invalid_argument& e) {
    // The message names the node and the field so a misconfigured
    // experiment points at its own recipe, not at engine internals.
    EXPECT_NE(std::string(e.what()).find("node 0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("slots"), std::string::npos);
  }
}

TEST(ClusterTest, ValidationRejectsNonPositiveCapacity) {
  NodeSpec good;
  good.capacity = Resources{2.0, 4.0, 100.0, 100.0};
  NodeSpec bad = good;
  bad.capacity.mem = 0.0;
  try {
    ClusterSpec spec({good, bad});
    FAIL() << "zero-capacity node must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos);
  }
  for (const double v : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    bad = good;
    bad.capacity.cpu = v;
    EXPECT_THROW(ClusterSpec({good, bad}), std::invalid_argument) << v;
    bad = good;
    bad.capacity.bw = v;
    EXPECT_THROW(ClusterSpec({good, bad}), std::invalid_argument) << v;
  }
}

TEST(ClusterTest, ValidationRejectsNegativeTheta) {
  NodeSpec node;
  node.capacity = Resources{2.0, 4.0, 100.0, 100.0};
  EXPECT_THROW(ClusterSpec({node}, /*theta1=*/-0.1, /*theta2=*/0.5),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec({node}, /*theta1=*/0.5, /*theta2=*/-1.0),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec({node}, 0.5, 0.5, /*mem_mips_equiv=*/0.0),
               std::invalid_argument);
}

TEST(ClusterTest, ValidationRejectsZeroRate) {
  // theta1 = theta2 = 0 zeroes g(k) for every node even though the node
  // fields themselves are positive.
  NodeSpec node;
  node.cpu_mips = 2660.0;
  node.mem_gb = 4.0;
  node.capacity = Resources{2.0, 4.0, 100.0, 100.0};
  EXPECT_THROW(ClusterSpec({node}, /*theta1=*/0.0, /*theta2=*/0.0),
               std::invalid_argument);
}

TEST(ClusterTest, ValidationRejectsNonPositiveCpuAndMem) {
  NodeSpec bad;
  bad.capacity = Resources{2.0, 4.0, 100.0, 100.0};
  bad.cpu_mips = -1.0;
  EXPECT_THROW(ClusterSpec({bad}), std::invalid_argument);
  bad.cpu_mips = 2660.0;
  bad.mem_gb = 0.0;
  EXPECT_THROW(ClusterSpec({bad}), std::invalid_argument);
  // NaN passes a `<= 0` test and infinity a positivity test; both would
  // turn g(k) into NaN or infinity.
  for (const double v : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    bad.cpu_mips = v;
    bad.mem_gb = 4.0;
    EXPECT_THROW(ClusterSpec({bad}), std::invalid_argument) << v;
    bad.cpu_mips = 2660.0;
    bad.mem_gb = v;
    EXPECT_THROW(ClusterSpec({bad}), std::invalid_argument) << v;
  }
}

TEST(ClusterTest, ValidationRejectsClustersWiderThanEventNodeIds) {
  // Event node ids are int16: 32768 nodes (ids 0..32767) is the widest
  // cluster whose ids survive the flight recorder unwrapped.
  NodeSpec node;
  node.capacity = Resources{2.0, 4.0, 100.0, 100.0};
  EXPECT_EQ(ClusterSpec::kMaxNodes, 32768u);
  EXPECT_NO_THROW(
      ClusterSpec(std::vector<NodeSpec>(ClusterSpec::kMaxNodes, node)));
  try {
    ClusterSpec spec(std::vector<NodeSpec>(ClusterSpec::kMaxNodes + 1, node));
    FAIL() << "a cluster wider than the event node-id range must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("32769 nodes"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("limit of 32768"), std::string::npos);
  }
}

TEST(ClusterTest, ResourcesFitsAndArithmetic) {
  const Resources cap{4, 16, 100, 100};
  EXPECT_TRUE(cap.fits({4, 16, 100, 100}));
  EXPECT_FALSE(cap.fits({4.1, 1, 1, 1}));
  Resources r = cap;
  r -= Resources{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(r.cpu, 3.0);
  r += Resources{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(r.mem, 16.0);
  const Resources a{1, 2, 0, 0};
  const Resources b{3, 4, 0, 0};
  EXPECT_DOUBLE_EQ(a.dot(b), 11.0);
}

// ---------------------------------------------------------------------
// Basic execution timing
// ---------------------------------------------------------------------

TEST(EngineTest, SingleTaskExactDuration) {
  // 2000 MI at 1000 MIPS = 2 s; scheduled at the period tick coincident
  // with arrival (t = 0), so makespan == 2 s.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 2000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 1u);
  EXPECT_EQ(m.jobs_finished, 1u);
  EXPECT_EQ(m.makespan, 2 * kSecond);
  EXPECT_EQ(m.preemptions, 0u);
  EXPECT_EQ(m.disorders, 0u);
}

TEST(EngineTest, ChainRunsSequentially) {
  // 3-task chain of 1 s each on a 4-slot node: dependencies force 3 s.
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 3, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 4), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.makespan, 3 * kSecond);
}

TEST(EngineTest, IndependentTasksRunInParallel) {
  // 4 independent 1 s tasks on a 4-slot node: 1 s total.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 4, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 4), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.run().makespan, 1 * kSecond);
}

TEST(EngineTest, SlotLimitSerializes) {
  // 4 independent 1 s tasks on a 2-slot node: 2 s.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 4, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 2), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.run().makespan, 2 * kSecond);
}

TEST(EngineTest, ResourceLimitSerializes) {
  // Node has 2 GB memory; tasks demand 1.5 GB each: despite 4 slots and
  // ample CPU, only one runs at a time.
  JobSet jobs;
  {
    Job job(0, 2);
    for (TaskIndex t = 0; t < 2; ++t) {
      job.task(t).size_mi = 1000.0;
      job.task(t).demand = Resources{1.0, 1.5, 0, 0};
    }
    ASSERT_TRUE(job.finalize(kTestRate));
    jobs.push_back(std::move(job));
  }
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 4), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.run().makespan, 2 * kSecond);
}

TEST(EngineTest, DiamondDependencyTiming) {
  // Diamond of 1 s tasks, enough slots: 0 (1s) -> {1,2} parallel (1s) ->
  // 3 (1s) = 3 s.
  JobSet jobs;
  jobs.push_back(make_diamond_job(0, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 4), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.run().makespan, 3 * kSecond);
}

TEST(EngineTest, MultiNodeSpreadsLoad) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 8, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(4, 2), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.run().makespan, 1 * kSecond);
}

TEST(EngineTest, IndependentJobsOverlap) {
  // Two 2-task jobs arriving together on 8 slots run side by side: 1 s.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 2, 1000.0));
  jobs.push_back(make_independent_job(1, 2, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(2, 4), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.run().makespan, 1 * kSecond);
}

TEST(EngineTest, ZeroRateClusterRejectedAtConstruction) {
  // A fully-degraded cluster (g(k) = 0 for every k) used to reach the
  // engine, whose time queries then had to saturate (kMaxTime t^rem,
  // -kMaxTime t^a) instead of dividing by zero. ClusterSpec validation
  // now rejects the spec before an Engine can exist — from_seconds(inf)
  // in start_task/rebase_running was never survivable, so the defect is
  // caught where it is introduced. The saturation guards remain as
  // defense-in-depth against runtime rate degradation.
  EXPECT_THROW(ClusterSpec::uniform(1, 0.0, 0.0, 2), std::invalid_argument);
}

TEST(EngineTest, TaskThatFitsNoNodeRejectedAtConstruction) {
  // A 1-slot uniform node offers one core; task 1 of job 7 demands two, so
  // it could never run. The engine rejects it when it is built, naming the
  // job by the id it was given, the task, the demand and the largest node.
  JobSet jobs;
  Job job = make_independent_job(7, 2, 1000.0);
  job.task(1).demand.cpu = 2.0;
  jobs.push_back(std::move(job));
  RoundRobinScheduler sched;
  try {
    Engine engine(test_cluster(3, 1), std::move(jobs), sched, nullptr,
                  fast_params());
    FAIL() << "an engine was built around a task that fits no node";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("job 7 task 1 "), std::string::npos) << message;
    EXPECT_NE(message.find("demands {cpu=2.00 "), std::string::npos)
        << message;
    EXPECT_NE(message.find("capacity per dimension {cpu=1.00 "),
              std::string::npos)
        << message;
  }
}

TEST(EngineTest, LifecycleAdvancesAcrossRun) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.lifecycle(), Engine::Lifecycle::kIdle);
  engine.run();
  EXPECT_EQ(engine.lifecycle(), Engine::Lifecycle::kDone);
}

TEST(EngineDeathTest, RunningTwiceIsFatal) {
  // An Engine is single-shot: the calendar and runtime records are
  // consumed by run(), so a second run would replay arrivals against
  // stale state and silently corrupt every metric. The engine fails
  // loudly (diagnostic + abort) instead.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, nullptr,
                fast_params());
  engine.run();
  EXPECT_DEATH(engine.run(), "single-shot");
}

TEST(EngineTest, LeafInputsMatchSeparateAccessors) {
  // The fused accessor promises bit-identical results to composing the
  // three separate queries (priority.cpp depends on this).
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 2, 1234.0, 0, 30 * kSecond));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 2), std::move(jobs), sched, nullptr,
                fast_params());
  const Gid g = engine.gid(0, 1);
  const Engine::LeafInputs in = engine.leaf_inputs(g);
  EXPECT_EQ(in.t_rem_s, to_seconds(engine.remaining_time(g)));
  EXPECT_EQ(in.t_wait_s, engine.accumulated_wait_s(g));
  EXPECT_EQ(in.t_allow_s, to_seconds(engine.allowable_waiting_time(g)));
}

TEST(EngineTest, LateArrivalWaitsForPeriodTick) {
  // Job arrives at 1.5 s; period is 1 s, so it is scheduled at the next
  // tick (2.0 s relative to the first arrival's tick grid anchored at
  // 1.5 s... ticks run from first arrival: 1.5, 2.5, ...). With a single
  // job the first tick at its own arrival schedules it immediately.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 1000.0, from_seconds(1.5)));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  // Makespan counts from first arrival: scheduled at 1.5 s, runs 1 s.
  EXPECT_EQ(m.makespan, 1 * kSecond);
}

TEST(EngineTest, SecondJobScheduledAtNextPeriod) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 1000.0, 0));
  jobs.push_back(make_independent_job(1, 1, 1000.0, from_seconds(0.25)));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(2, 1), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  // Job 1 arrives at 0.25 s, waits for the 1.0 s period tick, finishes at
  // 2.0 s.
  EXPECT_EQ(m.makespan, 2 * kSecond);
}

// ---------------------------------------------------------------------
// Dependency enforcement invariants
// ---------------------------------------------------------------------

TEST(EngineTest, DefaultDispatchNeverViolatesDependencies) {
  // Queue order intentionally places children before parents; the default
  // dispatcher must still never start a child early (and records no
  // disorders because selection skips unready tasks).
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 5, 500.0));
  // Reverse-queue scheduler: plans children first.
  class ReverseScheduler : public Scheduler {
   public:
    const char* name() const override { return "Reverse"; }
    std::vector<TaskPlacement> schedule(const std::vector<JobId>& pending,
                                        Engine& engine) override {
      std::vector<TaskPlacement> out;
      SimTime seq = 0;
      for (JobId j : pending) {
        const auto topo = engine.job(j).graph().topo_order();
        for (auto it = topo.rbegin(); it != topo.rend(); ++it)
          out.push_back(TaskPlacement{engine.gid(j, *it), 0, engine.now() + seq++});
      }
      return out;
    }
  } sched;
  Engine engine(test_cluster(1, 2), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 5u);
  EXPECT_EQ(m.disorders, 0u);
  EXPECT_EQ(m.makespan, from_seconds(0.5) * 5);
}

TEST(EngineTest, BlindSelectionCountsDisorders) {
  // A scheduler whose dispatch deliberately returns the queue head even
  // when unready: every such selection is a disorder.
  class BlindScheduler : public testing::RoundRobinScheduler {
   public:
    Gid select_next(int node, Engine& engine,
                    const std::vector<std::uint8_t>& excluded) override {
      for (Gid g : engine.waiting(node)) {
        if (excluded[g]) continue;
        if (!engine.available(node).fits(engine.task_info(g).demand)) continue;
        return g;  // no readiness check
      }
      return kInvalidGid;
    }
  } sched;
  JobSet jobs;
  {
    // Chain queued child-first on one node: head is always unready.
    Job job(0, 2);
    for (TaskIndex t = 0; t < 2; ++t) {
      job.task(t).size_mi = 1000.0;
      job.task(t).demand = Resources{1, 1, 0, 0};
    }
    job.add_dependency(0, 1);
    ASSERT_TRUE(job.finalize(kTestRate));
    jobs.push_back(std::move(job));
  }
  // Reverse the queue by planned start: place child before parent.
  class BlindReverse : public BlindScheduler {
   public:
    std::vector<TaskPlacement> schedule(const std::vector<JobId>& pending,
                                        Engine& engine) override {
      std::vector<TaskPlacement> out;
      for (JobId j : pending) {
        out.push_back(TaskPlacement{engine.gid(j, 1), 0, engine.now()});
        out.push_back(TaskPlacement{engine.gid(j, 0), 0, engine.now() + 1});
      }
      return out;
    }
  } blind;
  Engine engine(test_cluster(1, 1), std::move(jobs), blind, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 2u);
  EXPECT_GE(m.disorders, 1u);
}

// ---------------------------------------------------------------------
// Preemption mechanics
// ---------------------------------------------------------------------

/// Preempts the running task with gid `victim` in favour of `incoming` at
/// the first epoch where both qualify, then stops.
class OneShotPreemption : public PreemptionPolicy {
 public:
  OneShotPreemption(CheckpointMode mode) : mode_(mode) {}
  const char* name() const override { return "OneShot"; }
  CheckpointMode checkpoint_mode() const override { return mode_; }
  void on_epoch(Engine& engine) override {
    if (done_) return;
    for (int node = 0; node < static_cast<int>(engine.node_count()); ++node) {
      const auto running = engine.running(node);
      const auto waiting = engine.waiting(node);
      if (running.empty() || waiting.empty()) continue;
      last_result_ = engine.try_preempt(node, running.front(), waiting.front());
      if (last_result_ == PreemptResult::kOk) done_ = true;
      return;
    }
  }
  PreemptResult last_result() const { return last_result_; }

 private:
  CheckpointMode mode_;
  bool done_ = false;
  PreemptResult last_result_ = PreemptResult::kOk;
};

TEST(EngineTest, PreemptionSwapsTasks) {
  // Two independent 10 s tasks on a 1-slot node. At the first epoch the
  // waiting task preempts the running one; with checkpointing, total time
  // is ~20 s + overheads.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 2, 10000.0));
  RoundRobinScheduler sched;
  OneShotPreemption policy(CheckpointMode::kCheckpoint);
  EngineParams params = fast_params();
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, &policy, params);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.preemptions, 1u);
  EXPECT_EQ(m.tasks_finished, 2u);
  // Work conserved (checkpoint): 20 s of work + ctx switch on preempt-in +
  // recovery + ctx when the victim resumes.
  const SimTime overhead = kCtxSwitch + (kRecovery + kCtxSwitch);
  EXPECT_EQ(m.makespan, 20 * kSecond + overhead);
  EXPECT_DOUBLE_EQ(m.overhead_s, to_seconds(overhead));
}

TEST(EngineTest, RestartModeLosesProgress) {
  // Same setup without checkpointing: the victim restarts from scratch.
  // Victim ran for one epoch (0.5 s) before being preempted; that work is
  // lost, so makespan exceeds the checkpointed equivalent by ~0.5 s minus
  // differing recovery costs.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 2, 10000.0));
  RoundRobinScheduler sched;
  OneShotPreemption policy(CheckpointMode::kRestart);
  EngineParams params = fast_params();
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, &policy, params);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.preemptions, 1u);
  // Victim was preempted at the first epoch (0.5 s in) and restarts: total
  // work executed = 20 s + 0.5 s lost; restart pays kCtxSwitch only.
  const SimTime overhead = kCtxSwitch + kCtxSwitch;
  EXPECT_EQ(m.makespan, 20 * kSecond + from_seconds(0.5) + overhead);
}

TEST(EngineTest, TryPreemptRejectsUnreadyIncoming) {
  // Chain job: child waits behind parent on a 1-slot node; preempting the
  // parent in favour of its child is a disorder and must be refused.
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 2, 10000.0));
  RoundRobinScheduler sched;
  class ChildPreempt : public PreemptionPolicy {
   public:
    const char* name() const override { return "ChildPreempt"; }
    void on_epoch(Engine& engine) override {
      if (tried_) return;
      if (!engine.running(0).empty() && !engine.waiting(0).empty()) {
        result = engine.try_preempt(0, engine.running(0).front(),
                                    engine.waiting(0).front());
        tried_ = true;
      }
    }
    PreemptResult result = PreemptResult::kOk;

   private:
    bool tried_ = false;
  } policy;
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, &policy,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(policy.result, PreemptResult::kIncomingNotReady);
  EXPECT_EQ(m.disorders, 1u);
  EXPECT_EQ(m.preemptions, 0u);
  EXPECT_EQ(m.tasks_finished, 2u);
}

TEST(EngineTest, TryPreemptValidatesArguments) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 2, 5000.0));
  RoundRobinScheduler sched;
  class Probe : public PreemptionPolicy {
   public:
    const char* name() const override { return "Probe"; }
    void on_epoch(Engine& engine) override {
      if (tried_ || engine.running(0).empty() || engine.waiting(0).empty())
        return;
      const Gid running = engine.running(0).front();
      const Gid waiting = engine.waiting(0).front();
      // Victim not running:
      not_running = engine.try_preempt(0, waiting, running);
      // Incoming not waiting:
      not_waiting = engine.try_preempt(0, running, running);
      tried_ = true;
    }
    PreemptResult not_running = PreemptResult::kOk;
    PreemptResult not_waiting = PreemptResult::kOk;

   private:
    bool tried_ = false;
  } policy;
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, &policy,
                fast_params());
  engine.run();
  EXPECT_EQ(policy.not_running, PreemptResult::kVictimNotRunning);
  EXPECT_EQ(policy.not_waiting, PreemptResult::kIncomingNotWaiting);
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(EngineTest, DeadlineAccounting) {
  JobSet jobs;
  // 1 s of work, 10 s deadline: met.
  jobs.push_back(make_independent_job(0, 1, 1000.0, 0, 10 * kSecond));
  // 10 s of work, 2 s deadline: missed.
  jobs.push_back(make_independent_job(1, 1, 10000.0, 0, 2 * kSecond));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(2, 1), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.jobs_met_deadline, 1u);
  EXPECT_EQ(m.deadline_misses, 1u);
}

TEST(EngineTest, ThroughputMetricsConsistent) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 10, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(2, 2), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 10u);
  EXPECT_NEAR(m.throughput_tasks_per_ms(),
              10.0 / to_millis(m.makespan), 1e-12);
}

TEST(EngineTest, UtilizationFullOnSaturatedNode) {
  // One slot, back-to-back tasks => utilization ~ 1.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 4, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_NEAR(m.slot_utilization, 1.0, 1e-6);
}

TEST(EngineTest, WaitingTimeRecorded) {
  // Two 1 s tasks, one slot: the second waits ~1 s.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 2, 1000.0));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  ASSERT_EQ(m.job_waiting_s.size(), 1u);
  // Mean of (0 s, 1 s) = 0.5 s.
  EXPECT_NEAR(m.job_waiting_s[0], 0.5, 1e-6);
  EXPECT_NEAR(m.avg_job_waiting_s(), 0.5, 1e-6);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    JobSet jobs;
    for (JobId j = 0; j < 5; ++j)
      jobs.push_back(make_chain_job(j, 4, 750.0 + 10.0 * j, j * kSecond / 3));
    RoundRobinScheduler sched;
    Engine engine(test_cluster(2, 2), std::move(jobs), sched, nullptr,
                  fast_params());
    return engine.run();
  };
  const RunMetrics a = run_once();
  const RunMetrics b = run_once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.tasks_finished, b.tasks_finished);
  EXPECT_EQ(a.job_waiting_s, b.job_waiting_s);
}

TEST(EngineTest, ReadApiExposesTaskInfo) {
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 3, 1000.0, 0, 30 * kSecond));
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, nullptr,
                fast_params());
  EXPECT_EQ(engine.job_count(), 1u);
  EXPECT_EQ(engine.total_task_count(), 3u);
  const Gid g1 = engine.gid(0, 1);
  EXPECT_EQ(engine.job_of(g1), 0u);
  EXPECT_EQ(engine.index_of(g1), 1u);
  EXPECT_TRUE(engine.depends_on(engine.gid(0, 2), engine.gid(0, 0)));
  EXPECT_FALSE(engine.depends_on(engine.gid(0, 0), engine.gid(0, 2)));
  EXPECT_EQ(engine.state(g1), TaskState::kUnscheduled);
  EXPECT_FALSE(engine.is_ready(g1));
  EXPECT_TRUE(engine.is_ready(engine.gid(0, 0)));
  EXPECT_DOUBLE_EQ(engine.remaining_mi(g1), 1000.0);
  EXPECT_EQ(engine.exec_time(g1, 0), 1 * kSecond);
}

TEST(EngineTest, EmptyWorkloadCompletes) {
  JobSet jobs;
  RoundRobinScheduler sched;
  Engine engine(test_cluster(1, 1), std::move(jobs), sched, nullptr,
                fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, 0u);
  EXPECT_EQ(m.makespan, 0);
}

TEST(EngineTest, ToStringHelpers) {
  EXPECT_STREQ(to_string(TaskState::kRunning), "running");
  EXPECT_STREQ(to_string(TaskState::kWaiting), "waiting");
  EXPECT_STREQ(to_string(PreemptResult::kOk), "ok");
  EXPECT_STREQ(to_string(PreemptResult::kIncomingNotReady),
               "incoming-not-ready");
}

}  // namespace
}  // namespace dsp
