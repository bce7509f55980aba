// Tests for DSP's preemption engine (Algorithm 1, PP, adaptive delta) and
// the Amoeba/Natjam/SRPT baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/preempt_baselines.h"
#include "bench_common.h"
#include "core/dsp_system.h"
#include "core/preemption.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "scenarios/standard.h"
#include "test_util.h"
#include "trace/workload.h"

namespace dsp {
namespace {

using testing::make_chain_job;
using testing::make_independent_job;
using testing::RoundRobinScheduler;

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

JobSet contended_workload(std::size_t jobs, std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.job_count = jobs;
  cfg.task_scale = 0.01;
  cfg.cpu_max = 2.0;
  cfg.mem_max = 1.8;
  // Tight arrivals to force queueing.
  cfg.min_arrival_rate = 30.0;
  cfg.max_arrival_rate = 40.0;
  return WorkloadGenerator(cfg, seed).generate();
}

ClusterSpec tight_cluster() { return ClusterSpec::uniform(2, 1800.0, 2.0, 2); }

RunMetrics run_policy(PreemptionPolicy* policy, std::size_t jobs,
                      std::uint64_t seed) {
  DspScheduler sched;
  Engine engine(tight_cluster(), contended_workload(jobs, seed), sched, policy,
                fast_params());
  return engine.run();
}

// ---------------------------------------------------------------------
// DSP preemption core behaviour
// ---------------------------------------------------------------------

TEST(DspPreemptionTest, CompletesContentedWorkloadWithZeroDisorders) {
  DspParams params;
  DspPreemption dsp(params);
  const RunMetrics m = run_policy(&dsp, 8, 101);
  EXPECT_EQ(m.disorders, 0u);
  EXPECT_EQ(m.jobs_finished, 8u);
}

TEST(DspPreemptionTest, NeverPreemptsVictimTheWaiterDependsOn) {
  // Single node, one slot. A chain's parent runs; its child waits with a
  // huge fabricated priority. C2 must prevent the child from evicting the
  // parent (the engine would also refuse — but DSP must not even try,
  // which we observe as zero disorders).
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 2, 20000.0, 0, 10 * kMinute));
  DspScheduler sched;
  DspParams params;
  DspPreemption dsp(params);
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1), std::move(jobs), sched,
                &dsp, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.disorders, 0u);
  EXPECT_EQ(m.preemptions, 0u);
}

TEST(DspPreemptionTest, UrgentTaskPreempts) {
  // Task B's deadline is nearly due (allowable waiting <= epsilon) while a
  // long task with huge slack occupies the slot: B must preempt.
  JobSet jobs;
  // Long-running low-urgency job.
  jobs.push_back(make_independent_job(0, 1, 120000.0, 0, 2 * kHour));
  // Short job arriving just after: scheduled at the next period tick with
  // a deadline that is only barely achievable — urgent immediately.
  jobs.push_back(
      make_independent_job(1, 1, 5000.0, 300 * kMillisecond, 8 * kSecond));
  DspScheduler sched;
  DspParams params;
  params.epsilon = 2 * kSecond;
  DspPreemption dsp(params);
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1), std::move(jobs), sched,
                &dsp, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_GE(m.preemptions, 1u);
  // The urgent job must meet its deadline thanks to the preemption.
  EXPECT_GE(m.jobs_met_deadline, 1u);
}

TEST(DspPreemptionTest, PreemptableRequiresDeadlineSlack) {
  // The running task has *no* slack (allowable waiting < epoch): DSP must
  // not preempt it even for a higher-priority waiter.
  JobSet jobs;
  // Running job: deadline leaves less slack than one epoch (0.5 s), so it
  // is never preemptable.
  jobs.push_back(make_independent_job(0, 1, 30000.0, 0,
                                      30 * kSecond + 200 * kMillisecond));
  jobs.push_back(make_independent_job(1, 1, 1000.0, 0, 20 * kMinute));
  DspScheduler sched;
  DspParams params;
  DspPreemption dsp(params);
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1), std::move(jobs), sched,
                &dsp, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.preemptions, 0u);
}

TEST(DspPreemptionTest, PpSuppressesChurnPreemptions) {
  // Property over seeds: with PP enabled, the preemption count never
  // exceeds the count without PP, and some suppressions are recorded
  // whenever preemption pressure exists.
  for (std::uint64_t seed : {111u, 222u, 333u}) {
    DspParams with_pp;
    with_pp.normalized_pp = true;
    with_pp.adaptive_delta = false;
    DspParams no_pp = with_pp;
    no_pp.normalized_pp = false;

    DspPreemption pp_policy(with_pp);
    DspPreemption nopp_policy(no_pp);
    const RunMetrics with_m = run_policy(&pp_policy, 10, seed);
    const RunMetrics without_m = run_policy(&nopp_policy, 10, seed);
    EXPECT_LE(with_m.preemptions, without_m.preemptions) << "seed " << seed;
  }
}

TEST(DspPreemptionTest, AdaptiveDeltaStaysInBounds) {
  DspParams params;
  params.adaptive_delta = true;
  DspPreemption dsp(params);
  run_policy(&dsp, 10, 131);
  EXPECT_GE(dsp.current_delta(), kDeltaMin);
  EXPECT_LE(dsp.current_delta(), kDeltaMax);
}

TEST(DspPreemptionTest, AdaptiveDeltaShrinksWhenNothingPreempts) {
  // Independent equal tasks contending for one slot: the window considers
  // waiting tasks every epoch, but an extreme rho suppresses every
  // preemption, so the observed preempt fraction is 0 and delta decays.
  DspParams params;
  params.adaptive_delta = true;
  params.rho = 1e9;
  DspPreemption dsp(params);
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 6, 30000.0, 0, 2 * kHour));
  DspScheduler sched;
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1), std::move(jobs), sched,
                &dsp, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.preemptions, 0u);
  EXPECT_LT(dsp.current_delta(), params.delta);
}

TEST(DspPreemptionTest, NonAdaptiveDeltaStaysFixed) {
  DspParams params;
  params.adaptive_delta = false;
  DspPreemption dsp(params);
  const RunMetrics m = run_policy(&dsp, 8, 137);
  (void)m;
  EXPECT_DOUBLE_EQ(dsp.current_delta(), params.delta);
}

TEST(DspPreemptionTest, NamesReflectPpFlag) {
  DspParams pp;
  EXPECT_STREQ(DspPreemption(pp).name(), "DSP");
  pp.normalized_pp = false;
  EXPECT_STREQ(DspPreemption(pp).name(), "DSPW/oPP");
}

TEST(DspPreemptionTest, CheckpointModeIsCheckpoint) {
  DspPreemption dsp{DspParams{}};
  EXPECT_EQ(dsp.checkpoint_mode(), CheckpointMode::kCheckpoint);
}

// fig8's DSP cell on the EC2 profile (DSP_SCALE=0.1, seed 42). The EC2
// cluster saturates early: once every running task has blown its deadline,
// no victim has t^a beyond an epoch, Algorithm 1 has nothing to preempt,
// and the preemption counts stop growing with the job count. Those idle
// epochs must also skip the Formula 12/13 recompute.
TEST(DspPreemptionTest, Fig8Ec2CellsPinPreemptionCountsAndSkipIdlePriorities) {
  bench::BenchEnv env;
  env.scale = 0.1;
  env.seed = 42;
  obs::Histo* priority =
      obs::default_registry().histogram("priority.compute_all_s");
  obs::Histo* epochs = obs::default_registry().histogram("engine.epoch_s");
  for (const std::size_t jobs : {std::size_t{500}, std::size_t{1000}}) {
    SCOPED_TRACE(jobs);
    const std::uint64_t priority_before = priority->snapshot().count;
    const std::uint64_t epochs_before = epochs->snapshot().count;
    const RunMetrics m = run_standard_scenario(bench::scheduler_scenario(
        SchedKind::kDsp, ClusterProfile::kEc2, jobs, env));
    EXPECT_EQ(m.preemptions, 961u);
    EXPECT_EQ(m.suppressed_preemptions, 416u);
    EXPECT_EQ(m.preempt_evaluations, 35663u);
    EXPECT_EQ(m.disorders, 0u);
    const std::uint64_t priority_calls =
        priority->snapshot().count - priority_before;
    const std::uint64_t epoch_calls = epochs->snapshot().count - epochs_before;
    EXPECT_GT(priority_calls, 0u);
    EXPECT_LT(priority_calls, epoch_calls);
  }
}

// ---------------------------------------------------------------------
// Baseline policies
// ---------------------------------------------------------------------

TEST(BaselinePolicyTest, AllBaselinesCompleteContendedWorkload) {
  AmoebaPolicy amoeba;
  NatjamPolicy natjam;
  SrptPolicy srpt;
  for (PreemptionPolicy* policy :
       std::initializer_list<PreemptionPolicy*>{&amoeba, &natjam, &srpt}) {
    const RunMetrics m = run_policy(policy, 6, 151);
    EXPECT_EQ(m.jobs_finished, 6u) << policy->name();
  }
}

TEST(BaselinePolicyTest, SrptRestartsFromScratch) {
  EXPECT_EQ(SrptPolicy().checkpoint_mode(), CheckpointMode::kRestart);
  EXPECT_EQ(AmoebaPolicy().checkpoint_mode(), CheckpointMode::kCheckpoint);
  EXPECT_EQ(NatjamPolicy().checkpoint_mode(), CheckpointMode::kCheckpoint);
}

TEST(BaselinePolicyTest, SrptPriorityShorterRemainingWins) {
  // Direct unit check of the priority formula via a probe engine.
  JobSet jobs;
  {
    Job job(0, 2);
    job.task(0).size_mi = 1000.0;
    job.task(1).size_mi = 50000.0;
    for (TaskIndex t = 0; t < 2; ++t)
      job.task(t).demand = Resources{1, 1, 0, 0};
    ASSERT_TRUE(job.finalize(1000.0));
    jobs.push_back(std::move(job));
  }
  RoundRobinScheduler sched;
  class Probe : public PreemptionPolicy {
   public:
    const char* name() const override { return "Probe"; }
    void on_epoch(Engine& engine) override {
      if (done) return;
      SrptPolicy srpt;
      p_small = srpt.priority(engine, 0);
      p_large = srpt.priority(engine, 1);
      done = true;
    }
    double p_small = 0, p_large = 0;
    bool done = false;
  } probe;
  Engine engine(ClusterSpec::uniform(2, 1800.0, 2.0, 1), std::move(jobs), sched,
                &probe, fast_params());
  engine.run();
  EXPECT_GT(probe.p_small, probe.p_large);
}

TEST(BaselinePolicyTest, AmoebaPreemptsLongestRemaining) {
  // One slot: a long task runs; a short task waits. Amoeba must swap them.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 100000.0, 0));
  jobs.push_back(make_independent_job(1, 1, 2000.0, from_seconds(0.2)));
  DspScheduler sched;
  AmoebaPolicy amoeba;
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1), std::move(jobs), sched,
                &amoeba, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_GE(m.preemptions, 1u);
  // The short job finishes long before the long one.
  ASSERT_EQ(m.job_waiting_s.size(), 2u);
  EXPECT_LT(m.job_waiting_s.front(), 30.0);
}

TEST(BaselinePolicyTest, NatjamOnlyProductionPreemptsResearch) {
  // Research waiting tasks must never preempt; production ones evict
  // research victims.
  auto make_tiered = [](JobTier running_tier, JobTier waiting_tier) {
    JobSet jobs;
    Job a = make_independent_job(0, 1, 100000.0, 0, 2 * kHour);
    a.set_tier(running_tier);
    Job b = make_independent_job(1, 1, 2000.0, from_seconds(0.2), 2 * kHour);
    b.set_tier(waiting_tier);
    jobs.push_back(std::move(a));
    jobs.push_back(std::move(b));
    return jobs;
  };
  DspScheduler sched;
  {
    NatjamPolicy natjam;
    Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1),
                  make_tiered(JobTier::kResearch, JobTier::kProduction), sched,
                  &natjam, fast_params());
    EXPECT_GE(engine.run().preemptions, 1u);
  }
  {
    DspScheduler sched2;
    NatjamPolicy natjam;
    Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1),
                  make_tiered(JobTier::kProduction, JobTier::kResearch), sched2,
                  &natjam, fast_params());
    EXPECT_EQ(engine.run().preemptions, 0u);
  }
}

TEST(BaselinePolicyTest, BlindPoliciesGenerateDisorders) {
  // Long chain roots with short dependent tasks under contention: the
  // short unready children outrank the long-running roots under SRPT,
  // which blindly tries to preempt them in — each attempt is a disorder.
  JobSet jobs;
  for (JobId j = 0; j < 6; ++j) {
    Job job(j, 5);
    for (TaskIndex t = 0; t < 5; ++t) {
      job.task(t).size_mi = t == 0 ? 60000.0 : 2000.0;
      job.task(t).demand = Resources{1, 0.4, 0.02, 0.02};
      if (t > 0) job.add_dependency(t - 1, t);
    }
    job.set_arrival(j * 100 * kMillisecond);
    job.set_deadline(j * 100 * kMillisecond + 2 * kHour);
    ASSERT_TRUE(job.finalize(1000.0));
    jobs.push_back(std::move(job));
  }
  DspScheduler sched;
  SrptPolicy srpt;
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 2), std::move(jobs), sched,
                &srpt, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_GT(m.disorders, 0u);
}

/// QueueScanPreemption::on_epoch as it was before the scan tested the
/// compact per-task facts first: its statements verbatim, with members
/// qualified by `this->` as a template over the policy needs. Every
/// occupant is a victim until the scan finds it not running, and every
/// waiting task is tested for state, launch block and eligibility before
/// its key is built.
template <typename Policy>
class ReferenceScan : public Policy {
 public:
  void on_epoch(Engine& engine) override {
    for (int node = 0; node < static_cast<int>(engine.node_count()); ++node) {
      if (engine.waiting(node).empty()) continue;

      victims_.clear();
      for (Gid r : engine.running(node))
        if (this->eligible_victim(engine, r))
          victims_.push_back(this->key(engine, r));
      if (victims_.empty()) continue;
      std::sort(victims_.begin(), victims_.end(),
                [this](const Key& a, const Key& b) {
                  return this->victim_order(a, b);
                });

      int attempt_budget = 8 * static_cast<int>(victims_.size());
      engine.waiting_snapshot(node, queue_);
      for (Gid w : queue_) {
        if (victims_.empty() || attempt_budget <= 0) break;
        const TaskState s = engine.state(w);
        if (s != TaskState::kWaiting && s != TaskState::kSuspended) continue;
        if (engine.launch_blocked(w)) continue;
        if (!this->eligible_preemptor(engine, w)) continue;
        const Key waiting = this->key(engine, w);

        for (auto it = victims_.begin(); it != victims_.end();) {
          const Gid v = it->gid;
          if (engine.state(v) != TaskState::kRunning) {
            it = victims_.erase(it);
            continue;
          }
          if (!this->should_preempt(waiting, *it)) break;
          --attempt_budget;
          const PreemptResult res = engine.try_preempt(node, v, w);
          if (res == PreemptResult::kOk) {
            victims_.erase(it);
            break;
          }
          if (res == PreemptResult::kNoResources) {
            ++it;
            continue;
          }
          break;
        }
      }
    }
  }

 private:
  using Key = typename Policy::Key;
  std::vector<Key> victims_;
  std::vector<Gid> queue_;
};

/// The standard factory, except that the three baseline policies run the
/// reference scan.
class ReferenceScanFactory : public StandardScenarioFactory {
 public:
  std::unique_ptr<PreemptionPolicy> make_policy(
      const ScenarioSpec& spec) const override {
    switch (spec.policy) {
      case PolicyKind::kAmoeba:
        return std::make_unique<ReferenceScan<AmoebaPolicy>>();
      case PolicyKind::kNatjam:
        return std::make_unique<ReferenceScan<NatjamPolicy>>();
      case PolicyKind::kSrpt:
        return std::make_unique<ReferenceScan<SrptPolicy>>();
      default:
        return StandardScenarioFactory::make_policy(spec);
    }
  }
};

/// Forwards to a factory's policy and records the deepest waiting queue
/// any epoch saw.
class DepthFactory : public ScenarioFactory {
 public:
  DepthFactory(const ScenarioFactory& inner, std::size_t& depth)
      : inner_(inner), depth_(depth) {}
  std::unique_ptr<Scheduler> make_scheduler(
      const ScenarioSpec& spec) const override {
    return inner_.make_scheduler(spec);
  }
  std::unique_ptr<PreemptionPolicy> make_policy(
      const ScenarioSpec& spec) const override {
    return std::make_unique<Depth>(inner_.make_policy(spec), depth_);
  }

 private:
  class Depth : public PreemptionPolicy {
   public:
    Depth(std::unique_ptr<PreemptionPolicy> inner, std::size_t& depth)
        : inner_(std::move(inner)), depth_(depth) {}
    const char* name() const override { return inner_->name(); }
    CheckpointMode checkpoint_mode() const override {
      return inner_->checkpoint_mode();
    }
    void on_epoch(Engine& engine) override {
      for (int k = 0; k < static_cast<int>(engine.node_count()); ++k)
        depth_ = std::max(depth_, engine.waiting(k).size());
      inner_->on_epoch(engine);
    }

   private:
    std::unique_ptr<PreemptionPolicy> inner_;
    std::size_t& depth_;
  };

  const ScenarioFactory& inner_;
  std::size_t& depth_;
};

/// Every field of `m` but the wall clock, doubles in hex: equal strings
/// mean bit-identical runs.
std::string all_fields(const RunMetrics& m) {
  std::ostringstream os;
  os << std::hexfloat << m.makespan << ' ' << m.tasks_finished << ' '
     << m.jobs_finished << ' ' << m.jobs_met_deadline << ' ' << m.disorders
     << ' ' << m.preemptions << ' ' << m.suppressed_preemptions << ' '
     << m.preempt_evaluations << ' ' << m.preempt_blocked_dependency << ' '
     << m.preempt_no_victim << ' ' << m.node_failures << ' '
     << m.tasks_killed_by_failure << ' ' << m.work_lost_mi << ' '
     << m.locality_local << ' ' << m.locality_remote << ' '
     << m.deadline_misses << ' ' << m.slot_utilization << ' '
     << m.overhead_s << '\n';
  for (const double w : m.job_waiting_s) os << w << ' ';
  os << '\n';
  for (const JobRecord& r : m.job_records)
    os << r.id << ' ' << static_cast<int>(r.size_class) << ' '
       << static_cast<int>(r.tier) << ' ' << r.arrival << ' ' << r.finish
       << ' ' << r.mean_task_wait_s << ' ' << r.met_deadline << '\n';
  return os.str();
}

/// Every field of two events, doubles compared bit for bit.
bool same_event(const obs::Event& a, const obs::Event& b) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  return a.time == b.time && a.seq == b.seq && a.epoch == b.epoch &&
         a.kind == b.kind && a.flags == b.flags && a.job == b.job &&
         a.task == b.task && a.task2 == b.task2 && a.node == b.node &&
         a.node2 == b.node2 && bits(a.a) == bits(b.a) &&
         bits(a.b) == bits(b.b) && bits(a.gap) == bits(b.gap) &&
         bits(a.rho) == bits(b.rho);
}

struct ScanRun {
  RunMetrics metrics;
  std::vector<obs::Event> events;
  std::size_t max_depth = 0;
};

ScanRun run_scan(const ScenarioSpec& spec, const ScenarioFactory& factory) {
  ScanRun out;
  obs::EventLog log;
  log.set_consumer([&out](const obs::Event& e) { out.events.push_back(e); });
  const DepthFactory depth(factory, out.max_depth);
  out.metrics = run_scenario(spec, depth, &log);
  return out;
}

TEST(BaselinePolicyTest, ScanMatchesReferenceScan) {
  // The shipped scan tests each waiting task's queued remaining time and
  // state byte before it reads the task's records, and drops hoarding
  // occupants from the victims up front. It must decide exactly as the
  // reference scan does, at queue depths where the filters act, with
  // hoarding occupants (TetrisW/oDep) and with failures requeueing work.
  for (const SchedKind sched : {SchedKind::kDsp, SchedKind::kTetrisNoDep}) {
    for (const PolicyKind policy :
         {PolicyKind::kAmoeba, PolicyKind::kNatjam, PolicyKind::kSrpt}) {
      ScenarioSpec spec;
      spec.name = std::string(to_token(sched)) + "-" + to_token(policy);
      SCOPED_TRACE(spec.name);
      spec.cluster.profile = ClusterProfile::kEc2;
      spec.workload.job_count = 50;
      spec.workload.task_scale = 0.1;
      spec.sched = sched;
      spec.policy = policy;
      spec.failures.kind = FailureRecipe::Kind::kOutages;
      spec.failures.mtbf_hours = 1.0;
      const ScanRun shipped = run_scan(spec, StandardScenarioFactory{});
      const ScanRun reference = run_scan(spec, ReferenceScanFactory{});
      EXPECT_GT(shipped.max_depth, 100u);
      EXPECT_GT(shipped.metrics.node_failures, 0u);
      EXPECT_GT(shipped.metrics.preemptions, 0u);
      EXPECT_EQ(all_fields(shipped.metrics), all_fields(reference.metrics));
      ASSERT_EQ(shipped.events.size(), reference.events.size());
      const auto diverged =
          std::mismatch(shipped.events.begin(), shipped.events.end(),
                        reference.events.begin(), same_event);
      EXPECT_TRUE(diverged.first == shipped.events.end())
          << "first divergence at event seq " << diverged.first->seq;
    }
  }
}

TEST(BaselinePolicyTest, Names) {
  EXPECT_STREQ(AmoebaPolicy().name(), "Amoeba");
  EXPECT_STREQ(NatjamPolicy().name(), "Natjam");
  EXPECT_STREQ(SrptPolicy().name(), "SRPT");
}

}  // namespace
}  // namespace dsp
