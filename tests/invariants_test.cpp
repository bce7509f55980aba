// Property tests: every scheduler x preemption-policy combination must
// produce a physically and logically sound execution timeline, validated
// by the run-invariant checker over the recorded trace.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/aalo.h"
#include "baselines/preempt_baselines.h"
#include "baselines/tetris.h"
#include "core/dsp_system.h"
#include "sim/invariants.h"
#include "sim/recorder.h"
#include "test_util.h"
#include "trace/workload.h"

namespace dsp {
namespace {

using testing::make_chain_job;
using testing::make_independent_job;

JobSet property_workload(std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.job_count = 8;
  cfg.task_scale = 0.01;
  cfg.min_arrival_rate = 20.0;  // contention so preemption actually fires
  cfg.max_arrival_rate = 30.0;
  return WorkloadGenerator(cfg, seed).generate();
}

EngineParams fast_params() {
  EngineParams p;
  p.period = 5 * kSecond;
  p.epoch = 1 * kSecond;
  return p;
}

struct Combo {
  std::string name;
  std::function<std::unique_ptr<Scheduler>()> scheduler;
  std::function<std::unique_ptr<PreemptionPolicy>()> policy;  // may be null
  bool work_conserving;  // false for restart-mode policies
};

std::vector<Combo> all_combos() {
  std::vector<Combo> combos;
  combos.push_back({"dsp+dsp", [] { return std::make_unique<DspScheduler>(); },
                    [] { return std::make_unique<DspPreemption>(); }, true});
  combos.push_back({"dsp+nopp",
                    [] { return std::make_unique<DspScheduler>(); },
                    [] {
                      DspParams params;
                      params.normalized_pp = false;
                      return std::make_unique<DspPreemption>(params);
                    },
                    true});
  combos.push_back({"dsp+amoeba",
                    [] { return std::make_unique<DspScheduler>(); },
                    [] { return std::make_unique<AmoebaPolicy>(); }, true});
  combos.push_back({"dsp+natjam",
                    [] { return std::make_unique<DspScheduler>(); },
                    [] { return std::make_unique<NatjamPolicy>(); }, true});
  combos.push_back({"dsp+srpt", [] { return std::make_unique<DspScheduler>(); },
                    [] { return std::make_unique<SrptPolicy>(); }, false});
  combos.push_back({"aalo",
                    [] { return std::make_unique<AaloScheduler>(); }, nullptr,
                    true});
  combos.push_back({"tetris-simdep",
                    [] {
                      return std::make_unique<TetrisScheduler>(
                          TetrisScheduler::Dependency::kSimple);
                    },
                    nullptr, true});
  combos.push_back({"tetris-nodep",
                    [] {
                      return std::make_unique<TetrisScheduler>(
                          TetrisScheduler::Dependency::kNone);
                    },
                    nullptr, true});
  return combos;
}

class ComboInvariantTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(ComboInvariantTest, TimelineIsSound) {
  const auto [combo_index, seed] = GetParam();
  const Combo combo = all_combos()[combo_index];
  const JobSet jobs = property_workload(static_cast<std::uint64_t>(seed));

  const auto scheduler = combo.scheduler();
  std::unique_ptr<PreemptionPolicy> policy;
  if (combo.policy) policy = combo.policy();

  // EC2 profile: its capacity (2 cores, 4 GB) covers the generator's
  // demand clamps, so every task fits some node.
  const ClusterSpec cluster = ClusterSpec::ec2(3);
  TimelineRecorder recorder;
  Engine engine(cluster, jobs, *scheduler, policy.get(), fast_params());
  const auto log = testing::recorder_log(recorder);
  engine.set_event_log(log.get());
  const RunMetrics m = engine.run();
  ASSERT_EQ(m.tasks_finished, total_tasks(jobs)) << combo.name;

  InvariantOptions options;
  options.check_work_conservation = combo.work_conserving;
  const auto problems = check_run_invariants(recorder, jobs, cluster, options);
  EXPECT_TRUE(problems.empty())
      << combo.name << ": " << (problems.empty() ? "" : problems.front());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombosAndSeeds, ComboInvariantTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, 8),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------
// Recorder unit tests
// ---------------------------------------------------------------------

TEST(RecorderTest, RecordsSimpleRun) {
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 3, 1000.0));
  testing::RoundRobinScheduler sched;
  TimelineRecorder recorder;
  EngineParams ep;
  ep.period = 1 * kSecond;
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 2), jobs, sched, nullptr,
                ep);
  const auto log = testing::recorder_log(recorder);
  engine.set_event_log(log.get());
  engine.run();

  // 3 tasks, one run interval each, no overhead (no preemption).
  EXPECT_EQ(recorder.intervals().size(), 3u);
  for (const auto& iv : recorder.intervals()) {
    EXPECT_EQ(iv.kind, IntervalKind::kRun);
    EXPECT_EQ(iv.duration(), 1 * kSecond);
    EXPECT_EQ(iv.outcome, Interval::End::kFinished);
  }
  EXPECT_EQ(recorder.finish_time(0), 1 * kSecond);
  EXPECT_EQ(recorder.finish_time(2), 3 * kSecond);
  EXPECT_EQ(recorder.first_run_start(1), 1 * kSecond);
  EXPECT_EQ(recorder.job_completions().size(), 1u);
  EXPECT_EQ(recorder.schedule_rounds(), 1u);
}

TEST(RecorderTest, SplitsOverheadFromProductiveTime) {
  // Force one preemption; the victim's resume shows an overhead interval.
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 2, 10000.0));
  testing::RoundRobinScheduler sched;
  class OneShot : public PreemptionPolicy {
   public:
    const char* name() const override { return "OneShot"; }
    void on_epoch(Engine& engine) override {
      if (done_) return;
      if (!engine.running(0).empty() && !engine.waiting(0).empty()) {
        if (engine.try_preempt(0, engine.running(0).front(),
                               engine.waiting(0).front()) == PreemptResult::kOk)
          done_ = true;
      }
    }

   private:
    bool done_ = false;
  } policy;
  TimelineRecorder recorder;
  EngineParams ep;
  ep.period = 1 * kSecond;
  ep.epoch = 500 * kMillisecond;
  Engine engine(ClusterSpec::uniform(1, 1800.0, 2.0, 1), jobs, sched, &policy,
                ep);
  const auto log = testing::recorder_log(recorder);
  engine.set_event_log(log.get());
  engine.run();

  std::size_t overhead_count = 0, preempted_count = 0;
  for (const auto& iv : recorder.intervals()) {
    if (iv.kind == IntervalKind::kOverhead) ++overhead_count;
    if (iv.outcome == Interval::End::kPreempted) ++preempted_count;
  }
  // Incoming task pays ctx switch; victim pays recovery + ctx on resume.
  EXPECT_EQ(overhead_count, 2u);
  EXPECT_GE(preempted_count, 1u);

  const auto problems = check_run_invariants(
      recorder, jobs, ClusterSpec::uniform(1, 1800.0, 2.0, 1));
  EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(RecorderTest, IntervalKindNames) {
  EXPECT_STREQ(to_string(IntervalKind::kRun), "run");
  EXPECT_STREQ(to_string(IntervalKind::kOverhead), "overhead");
  EXPECT_STREQ(to_string(IntervalKind::kHoard), "hoard");
}

// ---------------------------------------------------------------------
// Invariant checker sensitivity: corrupt timelines must be rejected.
// ---------------------------------------------------------------------

TEST(InvariantCheckerTest, DetectsMissingTask) {
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 2, 1000.0));
  TimelineRecorder empty;
  const auto problems = check_run_invariants(
      empty, jobs, ClusterSpec::uniform(1, 1800.0, 2.0, 1));
  EXPECT_FALSE(problems.empty());
}

TEST(InvariantCheckerTest, DetectsDependencyViolation) {
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 2, 1000.0));
  TimelineRecorder forged;
  testing::TimelineForge forge{forged};
  // Child (gid 1) runs before parent (gid 0) finishes.
  forge.start(0, 1, 0, 0);
  forge.finish(kSecond, 1, 0);
  forge.start(kSecond, 0, 0, 0);
  forge.finish(2 * kSecond, 0, 0);
  forge.job_complete(2 * kSecond, 0);
  const auto problems = check_run_invariants(
      forged, jobs, ClusterSpec::uniform(1, 1800.0, 2.0, 2));
  bool found = false;
  for (const auto& p : problems)
    if (p.find("before parent") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(InvariantCheckerTest, DetectsSlotOvercommit) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 3, 1000.0));
  TimelineRecorder forged;
  testing::TimelineForge forge{forged};
  for (Gid g = 0; g < 3; ++g) {
    forge.start(0, g, 0, 0);
    forge.finish(kSecond, g, 0);
  }
  forge.job_complete(kSecond, 0);
  // Node has 2 slots; 3 concurrent tasks is a violation.
  const auto problems = check_run_invariants(
      forged, jobs, ClusterSpec::uniform(1, 1800.0, 2.0, 2));
  bool found = false;
  for (const auto& p : problems)
    if (p.find("exceed") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(InvariantCheckerTest, DetectsWorkShortfall) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 1, 10000.0));  // needs 10 s
  TimelineRecorder forged;
  testing::TimelineForge forge{forged};
  forge.start(0, 0, 0, 0);
  forge.finish(kSecond, 0, 0);  // only ran 1 s
  forge.job_complete(kSecond, 0);
  const auto problems = check_run_invariants(
      forged, jobs, ClusterSpec::uniform(1, 1800.0, 2.0, 2));
  bool found = false;
  for (const auto& p : problems)
    if (p.find("executed") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace dsp
