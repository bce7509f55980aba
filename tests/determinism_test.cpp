// Determinism guarantees of the epoch hot path: the priorities compute_all
// writes each epoch must be bit-identical to a from-scratch Formula 12/13
// evaluation, DspPreemption's on-demand priority reads must equal an
// epoch-start snapshot, and the serial branch and bound must follow a
// pinned search.
#include <gtest/gtest.h>

#include <vector>

#include "core/dsp_scheduler.h"
#include "core/ilp_model.h"
#include "core/preemption.h"
#include "core/priority.h"
#include "lp/milp.h"
#include "obs/events.h"
#include "sim/engine.h"
#include "sim/failures.h"
#include "trace/workload.h"

namespace dsp {
namespace {

WorkloadConfig contended_config(std::size_t job_count) {
  WorkloadConfig cfg;
  cfg.job_count = job_count;
  cfg.task_scale = 0.01;
  cfg.min_arrival_rate = 30.0;
  cfg.max_arrival_rate = 50.0;
  return cfg;
}

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

// ---------------------------------------------------------------------
// compute_all vs a from-scratch Formula 12/13 reference
// ---------------------------------------------------------------------

/// Formula 12/13 from scratch: a task without unfinished children takes
/// the leaf priority (Formula 13); any other task sums (gamma + 1) * P
/// over its unfinished children in graph.children() order (Formula 12).
/// Memoized per job (`done`/`memo` indexed by task), so a child shared by
/// several parents is evaluated once.
double reference_priority(const Engine& engine,
                          const DependencyPriority& priority, double g1,
                          JobId job, TaskIndex t, std::vector<double>& memo,
                          std::vector<char>& done) {
  if (done[t]) return memo[t];
  double sum = 0.0;
  bool has_live_child = false;
  for (TaskIndex c : engine.job(job).graph().children(t)) {
    if (engine.state(engine.gid(job, c)) == TaskState::kFinished) continue;
    has_live_child = true;
    sum += g1 * reference_priority(engine, priority, g1, job, c, memo, done);
  }
  memo[t] = has_live_child ? sum
                           : priority.leaf_priority(engine, engine.gid(job, t));
  done[t] = 1;
  return memo[t];
}

/// Each epoch, runs the policy-owned compute_all (its output vector
/// persists across epochs, as DspPreemption's does) and checks every task
/// of every scheduled, unfinished job against reference_priority, bit for
/// bit: finished tasks must read 0. The returned Range must equal the
/// min, max and count over the jobs' waiting, running, suspended and
/// hoarding tasks.
class ReferenceProbe : public PreemptionPolicy {
 public:
  explicit ReferenceProbe(const DspParams& params)
      : params_(params), priority_(params_) {}
  const char* name() const override { return "ReferenceProbe"; }

  void on_epoch(Engine& engine) override {
    const DependencyPriority::Range range = priority_.compute_all(engine, out_);
    ++epochs;
    ASSERT_EQ(out_.size(), engine.total_task_count());
    const double g1 = params_.gamma + 1.0;
    DependencyPriority::Range expected;
    for (JobId j = 0; j < engine.job_count(); ++j) {
      if (!engine.job_scheduled(j) || engine.job_finished(j)) continue;
      const std::size_t n = engine.job(j).task_count();
      std::vector<double> memo(n, 0.0);
      std::vector<char> done(n, 0);
      for (TaskIndex t = 0; t < n; ++t) {
        const Gid g = engine.gid(j, t);
        const TaskState state = engine.state(g);
        if (state == TaskState::kFinished) {
          ++finished_checked;
          if (out_[g] != 0.0) ++priority_mismatches;
          continue;
        }
        const double p =
            reference_priority(engine, priority_, g1, j, t, memo, done);
        // Exact comparison: both sides run the same floating-point
        // operations in the same order, and priorities are never NaN
        // (t_rem is clamped).
        if (out_[g] != p) ++priority_mismatches;
        if (state == TaskState::kUnscheduled) continue;
        if (expected.live_tasks == 0 || p < expected.min_p) expected.min_p = p;
        if (expected.live_tasks == 0 || p > expected.max_p) expected.max_p = p;
        ++expected.live_tasks;
      }
    }
    if (range.min_p != expected.min_p || range.max_p != expected.max_p ||
        range.live_tasks != expected.live_tasks)
      ++range_mismatches;
  }

  int epochs = 0;
  int priority_mismatches = 0;
  int range_mismatches = 0;
  /// Finished tasks of live jobs checked (they must read 0).
  int finished_checked = 0;

 private:
  const DspParams& params_;
  DependencyPriority priority_;
  std::vector<double> out_;
};

TEST(DeterminismTest, ComputeAllMatchesFromScratchReferenceBitwise) {
  const JobSet jobs = WorkloadGenerator(contended_config(10), 311).generate();
  DspScheduler sched;
  DspParams params;
  ReferenceProbe probe(params);
  Engine engine(ClusterSpec::ec2(4), jobs, sched, &probe, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, total_tasks(jobs));
  ASSERT_GT(probe.epochs, 10);
  // Jobs must finish tasks while still live, or the zeroing goes unchecked.
  EXPECT_GT(probe.finished_checked, 0);
  EXPECT_EQ(probe.priority_mismatches, 0);
  EXPECT_EQ(probe.range_mismatches, 0);
}

TEST(DeterminismTest, ComputeAllMatchesFromScratchReferenceUnderNodeEvents) {
  // Failures, slowdowns and recoveries change node rates out from under
  // waiting tasks, and failed nodes send tasks back through the queues.
  const JobSet jobs = WorkloadGenerator(contended_config(8), 313).generate();
  DspScheduler sched;
  DspParams params;
  ReferenceProbe probe(params);
  const ClusterSpec cluster = ClusterSpec::ec2(4);
  Engine engine(cluster, jobs, sched, &probe, fast_params());
  FailurePlan plan = FailurePlan::random_outages(cluster, 4 * kHour, 0.5, 2.0, 317);
  plan.add_slowdown(0, 10 * kSecond, 2 * kMinute, 0.5);
  engine.set_failure_plan(plan);
  engine.run();
  ASSERT_GT(probe.epochs, 10);
  EXPECT_GT(probe.finished_checked, 0);
  EXPECT_EQ(probe.priority_mismatches, 0);
  EXPECT_EQ(probe.range_mismatches, 0);
}

// ---------------------------------------------------------------------
// On-demand priorities vs an epoch-start snapshot
// ---------------------------------------------------------------------

/// Wraps a DspPreemption. At each epoch start it runs compute_all into its
/// own vector, before the inner policy reads or changes anything; the
/// inner policy's decisions then reach check() through the engine log's
/// consumer while the epoch runs. DspPreemption computes a job's
/// priorities at its first read in the epoch and P-bar at its first use,
/// possibly after preemptions, so every decision must still carry the
/// snapshot's candidate and victim priorities and P-tilde against the
/// snapshot's P-bar, bit for bit.
class SnapshotProbe : public PreemptionPolicy {
 public:
  explicit SnapshotProbe(const DspParams& params)
      : params_(params), priority_(params_), inner_(params) {}
  const char* name() const override { return "SnapshotProbe"; }
  CheckpointMode checkpoint_mode() const override {
    return inner_.checkpoint_mode();
  }

  void on_epoch(Engine& engine) override {
    pbar_ = priority_.compute_all(engine, snapshot_).mean_neighbor_gap();
    in_epoch_ = true;
    inner_.on_epoch(engine);
    in_epoch_ = false;
  }

  void check(const obs::Event& e) {
    if (e.kind != obs::EventKind::kPreemptDecision) return;
    ++decisions;
    const obs::PreemptDecision d = obs::decision_of(e);
    if (!in_epoch_) {
      ++outside_epoch;
      return;
    }
    if (d.urgent) ++urgent;
    if (d.outcome == obs::PreemptOutcome::kSuppressedPP) ++suppressed;
    // Exact comparisons: both sides run the same floating-point
    // operations on the same inputs.
    if (d.candidate_priority != snapshot_[d.candidate]) ++mismatches;
    double gap = 0.0;
    if (d.victim != kInvalidGid) {
      ++with_victim;
      if (d.victim_priority != snapshot_[d.victim]) ++mismatches;
      if (pbar_ > 0.0)
        gap = (snapshot_[d.candidate] - snapshot_[d.victim]) / pbar_;
    }
    if (d.normalized_gap != gap) ++mismatches;
  }

  int decisions = 0;
  int outside_epoch = 0;
  int urgent = 0;
  int suppressed = 0;
  int with_victim = 0;
  int mismatches = 0;

 private:
  const DspParams& params_;
  DependencyPriority priority_;
  DspPreemption inner_;
  std::vector<double> snapshot_;
  double pbar_ = 0.0;
  bool in_epoch_ = false;
};

/// Runs the contended EC2 workload under a SnapshotProbe with `params`.
void expect_decisions_match_snapshot(const DspParams& params) {
  const JobSet jobs = WorkloadGenerator(contended_config(12), 331).generate();
  DspScheduler sched;
  SnapshotProbe probe(params);
  obs::EventLog log;
  log.set_consumer([&probe](const obs::Event& e) { probe.check(e); });
  Engine engine(ClusterSpec::ec2(4), jobs, sched, &probe, fast_params());
  engine.set_event_log(&log);
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, total_tasks(jobs));
  EXPECT_EQ(static_cast<std::uint64_t>(probe.decisions), m.preempt_evaluations);
  EXPECT_EQ(probe.outside_epoch, 0);
  // Fired decisions (P-tilde read only for the log), urgent candidates
  // (priority read only for the log) and, with PP, suppressions (P-bar
  // read to decide) must all occur, or the comparison proves little.
  EXPECT_GT(m.preemptions, 0u);
  EXPECT_GT(probe.urgent, 0);
  if (params.normalized_pp) {
    EXPECT_GT(probe.suppressed, 0);
  }
  EXPECT_GT(probe.with_victim, 0);
  EXPECT_EQ(probe.mismatches, 0);
}

TEST(DeterminismTest, OnDemandPrioritiesEqualEpochStartSnapshot) {
  expect_decisions_match_snapshot(DspParams{});
}

TEST(DeterminismTest, OnDemandPrioritiesEqualEpochStartSnapshotWithoutPp) {
  DspParams params;
  params.normalized_pp = false;
  expect_decisions_match_snapshot(params);
}

// ---------------------------------------------------------------------
// Serial branch & bound search order
// ---------------------------------------------------------------------

/// An ILP instance whose LP relaxation, load cuts included, is
/// fractional, so the solver actually branches: a chain of sizes 3 -> 1
/// beside free tasks of sizes 1, 5 and 5, on machines of rate 1 and 1.4.
IlpProblem branching_ilp_instance() {
  IlpProblem p;
  p.machine_rates = {1.0, 1.4};
  p.tasks.resize(5);
  p.tasks[0].size_mi = 3.0;
  p.tasks[1].size_mi = 1.0;
  p.tasks[1].parents = {0};
  p.tasks[2].size_mi = 1.0;
  p.tasks[3].size_mi = 5.0;
  p.tasks[4].size_mi = 5.0;
  return p;
}

TEST(DeterminismTest, MilpSearchPinsNodeCountAndSolutionBits) {
  // Best-bound order (bound, then creation sequence) fixes the tree, so
  // the node count and the solution bits pin the search: a change to the
  // search order, the branching rule or the warm-start path shows up
  // here.
  const lp::Model model =
      build_ilp_model(branching_ilp_instance(), /*enforce_deadlines=*/true);
  lp::MilpSolver solver;
  const lp::Solution s = solver.solve(model);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(solver.last_nodes(), 35);
  EXPECT_EQ(s.objective, 0x1.9b6db6db6db6ep+2);
  const std::vector<double> expected = {
      0x1.9b6db6db6db6ep+2, 0x1.6db6db6db6d8p-1, 0x1.3fffffffffffcp+2,
      0x0p+0, 0x1.6db6db6db6dbcp+1, 0x0p+0, 0x0p+0, 0x1p+0, 0x1p+0, 0x0p+0,
      0x0p+0, 0x1.ffffffffffffcp-1, 0x0p+0, 0x1.fffffffffffffp-1, 0x1p+0,
      0x1.0000000000004p-52, 0x0p+0, 0x0p+0, 0x0p+0, 0x1p+0, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0};
  ASSERT_EQ(s.x.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(s.x[i], expected[i]) << "var " << i;
}

}  // namespace
}  // namespace dsp
