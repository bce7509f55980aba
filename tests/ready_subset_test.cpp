// Property tests for the kernel's per-node ready subset: at every epoch
// and before every dispatch decision, Engine::ready(k) must equal
// waiting(k) filtered by readiness, in the same order, and ready_within
// must count the ready entries of every waiting-queue prefix. Readiness
// is derived here from the task record (no unfinished parent), and every
// queued task's compact facts must agree with the records: its ready
// bit, Engine::launch_blocked, and Engine::queued_remaining_mi, which
// must equal remaining_mi bit for bit. The scenarios drive each path
// that changes readiness, progress or queue membership: slot hoarding
// and hoard-timeout requeues, node failover (with and without surviving
// checkpoints) and straggler migration, and restart-mode preemption.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/aalo.h"
#include "baselines/preempt_baselines.h"
#include "baselines/tetris.h"
#include "core/dsp_system.h"
#include "obs/events.h"
#include "sim/failures.h"
#include "test_util.h"
#include "trace/workload.h"

namespace dsp {
namespace {

using testing::make_diamond_job;

JobSet contended_workload(std::uint64_t seed, std::size_t jobs = 8) {
  WorkloadConfig cfg;
  cfg.job_count = jobs;
  cfg.task_scale = 0.01;
  cfg.min_arrival_rate = 20.0;  // contention: queues stay deep
  cfg.max_arrival_rate = 30.0;
  return WorkloadGenerator(cfg, seed).generate();
}

EngineParams fast_params() {
  EngineParams p;
  p.period = 5 * kSecond;
  p.epoch = 1 * kSecond;
  p.hoard_timeout = 2 * kSecond;
  // Every run here finishes within half an hour of simulated time; a
  // kernel that loses ready tasks stalls, and stops here instead of after
  // 2000 h of idle epochs.
  p.horizon = 12 * kHour;
  return p;
}

/// Readiness from the record: every parent finished.
bool derived_ready(const Engine& engine, Gid g) {
  return engine.task_runtime().rt(g).unfinished_parents == 0;
}

/// Compares the kernel's ready subsets and per-task facts with the slow
/// derivation.
class ReadyProbe {
 public:
  void check(const Engine& engine) {
    for (int k = 0; k < static_cast<int>(engine.node_count()); ++k) {
      ++checks_;
      std::vector<Gid> want;
      for (Gid g : engine.waiting(k)) {
        const bool ready = derived_ready(engine, g);
        check_task(engine, g, ready);
        if (ready) want.push_back(g);
      }
      if (!want.empty() && want.size() < engine.waiting(k).size()) ++mixed_;
      if (engine.ready(k) != want) note_mismatch(engine, k, "ready", want);
    }
  }

  /// ready_within(k, w) for every window w, including past the queue end.
  void check_windows(const Engine& engine) {
    for (int k = 0; k < static_cast<int>(engine.node_count()); ++k) {
      const std::vector<Gid>& queue = engine.waiting(k);
      std::size_t ready = 0;
      for (std::size_t w = 0; w <= queue.size() + 1; ++w) {
        if (engine.ready_within(k, w) != ready) {
          std::ostringstream s;
          s << "ready_within(" << k << ", " << w << ") = "
            << engine.ready_within(k, w) << ", want " << ready;
          note(s.str());
        }
        if (w < queue.size() && derived_ready(engine, queue[w])) ++ready;
      }
    }
  }

  std::uint64_t checks() const { return checks_; }
  /// Queued tasks seen with some progress (remaining below their size).
  std::uint64_t progressed() const { return progressed_; }
  /// Queued tasks seen launch-blocked.
  std::uint64_t blocked() const { return blocked_; }
  std::uint64_t mixed() const { return mixed_; }
  std::uint64_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_; }

 private:
  void note_mismatch(const Engine& engine, int k, const char* what,
                     const std::vector<Gid>& want) {
    std::ostringstream s;
    s << "t=" << engine.now() << " node " << k << " " << what << " [";
    for (Gid g : engine.ready(k)) s << ' ' << g;
    s << " ] want [";
    for (Gid g : want) s << ' ' << g;
    s << " ]";
    note(s.str());
  }
  void note(const std::string& what) {
    if (mismatches_++ == 0) first_ = what;
  }
  /// The queued task's state byte and queued remaining work against the
  /// records.
  void check_task(const Engine& engine, Gid g, bool ready) {
    const TaskRuntime& tasks = engine.task_runtime();
    const bool blocked = tasks.launch_blocked_flag(g) && !ready;
    const double remaining = engine.remaining_mi(g);
    const double queued = engine.queued_remaining_mi(g);
    if (blocked) ++blocked_;
    if (remaining < engine.task_info(g).size_mi) ++progressed_;
    if (tasks.ready(g) == ready && engine.launch_blocked(g) == blocked &&
        std::bit_cast<std::uint64_t>(queued) ==
            std::bit_cast<std::uint64_t>(remaining))
      return;
    std::ostringstream s;
    s << "t=" << engine.now() << " task " << g << ": ready bit "
      << tasks.ready(g) << " (want " << ready << "), launch_blocked "
      << engine.launch_blocked(g) << " (want " << blocked
      << "), queued_remaining_mi " << queued << " (remaining_mi "
      << remaining << ")";
    note(s.str());
  }

  std::uint64_t checks_ = 0;
  std::uint64_t progressed_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t mixed_ = 0;
  std::uint64_t mismatches_ = 0;
  std::string first_;
};

/// Forwards to `inner` and checks the subsets before every select_next,
/// i.e. after every dispatch of a fill round and every event before one.
class CheckingScheduler : public Scheduler {
 public:
  CheckingScheduler(Scheduler& inner, ReadyProbe& probe)
      : inner_(inner), probe_(probe) {}
  const char* name() const override { return inner_.name(); }
  std::vector<TaskPlacement> schedule(const std::vector<JobId>& jobs,
                                      Engine& engine) override {
    return inner_.schedule(jobs, engine);
  }
  Gid select_next(int node, Engine& engine,
                  const std::vector<std::uint8_t>& excluded) override {
    probe_.check(engine);
    return inner_.select_next(node, engine, excluded);
  }
  bool hoards_slots() const override { return inner_.hoards_slots(); }

 private:
  Scheduler& inner_;
  ReadyProbe& probe_;
};

/// Checks the subsets and windows at every epoch, around `inner` (may be
/// null: then the probe only lets epochs tick).
class ProbePolicy : public PreemptionPolicy {
 public:
  ProbePolicy(PreemptionPolicy* inner, ReadyProbe& probe)
      : inner_(inner), probe_(probe) {}
  const char* name() const override {
    return inner_ ? inner_->name() : "Probe";
  }
  CheckpointMode checkpoint_mode() const override {
    return inner_ ? inner_->checkpoint_mode() : CheckpointMode::kCheckpoint;
  }
  void on_epoch(Engine& engine) override {
    probe_.check(engine);
    probe_.check_windows(engine);
    if (inner_ == nullptr) return;
    inner_->on_epoch(engine);
    probe_.check(engine);
  }

 private:
  PreemptionPolicy* inner_;
  ReadyProbe& probe_;
};

struct Probed {
  RunMetrics metrics;
  std::array<std::uint64_t, obs::kEventKindCount> events{};
  std::uint64_t failovers = 0;  // kTaskMigrate forced by a node failure
  std::uint64_t restarts = 0;   // kTaskPreempt that discarded progress
};

/// Runs `jobs` with both probes installed and tallies the event stream.
template <typename Setup>
Probed run_probed(const ClusterSpec& cluster, JobSet jobs, Scheduler& sched,
                  PreemptionPolicy* policy, ReadyProbe& probe, Setup setup,
                  const EngineParams& params = fast_params()) {
  CheckingScheduler checking(sched, probe);
  ProbePolicy probing(policy, probe);
  Probed out;
  obs::EventLog log;
  log.set_consumer([&out](const obs::Event& e) {
    ++out.events[static_cast<std::size_t>(e.kind)];
    if (e.kind == obs::EventKind::kTaskMigrate &&
        (e.flags & obs::kEventFlagFailover) != 0)
      ++out.failovers;
    if (e.kind == obs::EventKind::kTaskPreempt &&
        (e.flags & obs::kEventFlagKeptProgress) == 0)
      ++out.restarts;
  });
  Engine engine(cluster, std::move(jobs), checking, &probing, params);
  engine.set_event_log(&log);
  setup(engine);
  out.metrics = engine.run();
  return out;
}

std::uint64_t count(const Probed& p, obs::EventKind k) {
  return p.events[static_cast<std::size_t>(k)];
}

void expect_consistent(const ReadyProbe& probe) {
  EXPECT_GT(probe.checks(), 0u);
  EXPECT_GT(probe.mixed(), 0u) << "no queue ever held ready and unready tasks";
  EXPECT_EQ(probe.mismatches(), 0u) << probe.first_mismatch();
}

TEST(ReadySubsetTest, DiamondChildrenJoinOnTheirLastParentFinish) {
  // One node, one slot: the root runs alone, then both middle tasks turn
  // ready at once, and the sink only after the second of them finishes.
  JobSet jobs;
  jobs.push_back(make_diamond_job(0, 1000.0));
  std::vector<std::vector<Gid>> seen;
  class Recorder : public testing::PinnedScheduler {
   public:
    explicit Recorder(std::vector<std::vector<Gid>>& seen)
        : PinnedScheduler(0), seen_(seen) {}
    Gid select_next(int node, Engine& engine,
                    const std::vector<std::uint8_t>& excluded) override {
      seen_.push_back(engine.ready(node));
      return Scheduler::select_next(node, engine, excluded);
    }

   private:
    std::vector<std::vector<Gid>>& seen_;
  } recorder(seen);
  Engine engine(ClusterSpec::uniform(1, 1000.0, 2.0, 1), std::move(jobs),
                recorder, nullptr, fast_params());
  EXPECT_EQ(engine.run().tasks_finished, 4u);
  const std::vector<std::vector<Gid>> want = {{0}, {1, 2}, {2}, {3}};
  EXPECT_EQ(seen, want);
}

TEST(ReadySubsetTest, TetrisNoDepHoardingAndTimeoutRequeue) {
  const JobSet jobs = contended_workload(401);
  const std::size_t tasks = total_tasks(jobs);
  TetrisScheduler tetris(TetrisScheduler::Dependency::kNone);
  ReadyProbe probe;
  const Probed p = run_probed(ClusterSpec::ec2(4), jobs, tetris, nullptr,
                              probe, [](Engine&) {});
  EXPECT_EQ(p.metrics.tasks_finished, tasks);
  EXPECT_GT(count(p, obs::EventKind::kHoardStart), 0u);
  EXPECT_GT(count(p, obs::EventKind::kHoardEvict), 0u);
  EXPECT_GT(probe.blocked(), 0u) << "no queued task was ever launch-blocked";
  expect_consistent(probe);
}

TEST(ReadySubsetTest, FailoverAndStragglerMigration) {
  const JobSet jobs = contended_workload(403);
  const std::size_t tasks = total_tasks(jobs);
  const ClusterSpec cluster = ClusterSpec::ec2(6);
  DspScheduler sched;
  DspParams params;
  params.straggler_mitigation = true;
  DspPreemption policy(params);
  ReadyProbe probe;
  const Probed p = run_probed(
      cluster, jobs, sched, &policy, probe, [&cluster](Engine& engine) {
        FailurePlan plan =
            FailurePlan::random_outages(cluster, 4 * kHour, 0.3, 2.0, 409);
        plan.add_slowdown(0, 20 * kSecond, 30 * kMinute, 0.1);
        plan.add_slowdown(1, 40 * kSecond, 5 * kMinute, 0.5);
        engine.set_failure_plan(plan);
      });
  EXPECT_EQ(p.metrics.tasks_finished, tasks);
  EXPECT_GT(p.metrics.node_failures, 0u);
  EXPECT_GT(p.failovers, 0u);
  EXPECT_GT(count(p, obs::EventKind::kTaskMigrate), p.failovers)
      << "straggler mitigation never called migrate_task";
  EXPECT_GT(probe.progressed(), 0u);
  expect_consistent(probe);
}

TEST(ReadySubsetTest, FailoverWithoutSurvivingCheckpoints) {
  // A killed task loses its progress before fail_node requeues it, so its
  // queued remaining work must be rewritten to its full size.
  const JobSet jobs = contended_workload(413);
  const std::size_t tasks = total_tasks(jobs);
  const ClusterSpec cluster = ClusterSpec::ec2(6);
  DspScheduler sched;
  DspPreemption policy;
  EngineParams params = fast_params();
  params.checkpoints_survive_failure = false;
  ReadyProbe probe;
  const Probed p = run_probed(
      cluster, jobs, sched, &policy, probe,
      [&cluster](Engine& engine) {
        engine.set_failure_plan(
            FailurePlan::random_outages(cluster, 4 * kHour, 0.3, 2.0, 415));
      },
      params);
  EXPECT_EQ(p.metrics.tasks_finished, tasks);
  EXPECT_GT(p.metrics.node_failures, 0u);
  EXPECT_GT(p.metrics.work_lost_mi, 0.0);
  EXPECT_GT(p.failovers, 0u);
  EXPECT_GT(probe.progressed(), 0u);
  expect_consistent(probe);
}

TEST(ReadySubsetTest, SrptRestarts) {
  const JobSet jobs = contended_workload(407);
  const std::size_t tasks = total_tasks(jobs);
  DspScheduler sched;
  SrptPolicy srpt;
  ReadyProbe probe;
  const Probed p = run_probed(ClusterSpec::ec2(4), jobs, sched, &srpt, probe,
                              [](Engine&) {});
  EXPECT_EQ(p.metrics.tasks_finished, tasks);
  EXPECT_GT(p.restarts, 0u);
  expect_consistent(probe);
}

TEST(ReadySubsetTest, EverySchedulerAndPolicy) {
  // Every dispatch rule against every preemption policy of the paper's
  // comparison, on one contended workload.
  const JobSet jobs = contended_workload(411, 6);
  const std::size_t tasks = total_tasks(jobs);
  auto schedulers = [] {
    std::vector<std::unique_ptr<Scheduler>> s;
    s.push_back(std::make_unique<DspScheduler>());
    s.push_back(std::make_unique<AaloScheduler>());
    s.push_back(
        std::make_unique<TetrisScheduler>(TetrisScheduler::Dependency::kSimple));
    s.push_back(
        std::make_unique<TetrisScheduler>(TetrisScheduler::Dependency::kNone));
    return s;
  };
  auto policies = [] {
    std::vector<std::unique_ptr<PreemptionPolicy>> p;
    p.push_back(nullptr);
    p.push_back(std::make_unique<DspPreemption>());
    p.push_back(std::make_unique<AmoebaPolicy>());
    p.push_back(std::make_unique<NatjamPolicy>());
    p.push_back(std::make_unique<SrptPolicy>());
    return p;
  };
  for (auto& sched : schedulers()) {
    for (auto& policy : policies()) {
      SCOPED_TRACE(std::string(sched->name()) + " + " +
                   (policy ? policy->name() : "none"));
      ReadyProbe probe;
      const Probed p = run_probed(ClusterSpec::ec2(4), jobs, *sched,
                                  policy.get(), probe, [](Engine&) {});
      EXPECT_EQ(p.metrics.tasks_finished, tasks);
      EXPECT_EQ(probe.mismatches(), 0u) << probe.first_mismatch();
      EXPECT_GT(probe.checks(), 0u);
    }
  }
}

}  // namespace
}  // namespace dsp
