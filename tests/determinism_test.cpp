// Determinism guarantees of the incremental epoch hot path: priorities
// from the incremental compute_all must be bit-identical to a full
// recompute, and the serial branch and bound must follow a pinned search.
#include <gtest/gtest.h>

#include <vector>

#include "core/dsp_scheduler.h"
#include "core/ilp_model.h"
#include "core/priority.h"
#include "lp/milp.h"
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
// Incremental compute_all vs full recompute
// ---------------------------------------------------------------------

/// Each epoch, computes priorities two ways — full recompute
/// (invalidate() before every call) and incremental — plus a
/// same-timestamp repeat that exercises the all-clean skip path, and
/// requires exact equality across all of them.
class DualProbe : public PreemptionPolicy {
 public:
  explicit DualProbe(const DspParams& params)
      : reference_(params), incremental_(params) {}
  const char* name() const override { return "DualProbe"; }

  void on_epoch(Engine& engine) override {
    reference_.invalidate();  // force the full-recompute reference path
    const auto r0 = reference_.compute_all(engine, ref_out_);
    const auto r1 = incremental_.compute_all(engine, inc_out_);
    ++epochs;
    // operator== on vector<double> is exact element equality; priorities
    // are never NaN (t_rem is clamped), so this is bit-for-bit.
    if (inc_out_ != ref_out_) ++incremental_mismatches;
    if (r1.min_p != r0.min_p || r1.max_p != r0.max_p ||
        r1.live_tasks != r0.live_tasks)
      ++range_mismatches;
    // Repeat at the same timestamp with no intervening events: every job
    // is clean, so this must take the skip path and change nothing.
    const auto r3 = incremental_.compute_all(engine, inc_out_);
    if (inc_out_ != ref_out_ || r3.live_tasks != r0.live_tasks)
      ++skip_path_mismatches;
  }

  int epochs = 0;
  int incremental_mismatches = 0;
  int range_mismatches = 0;
  int skip_path_mismatches = 0;

 private:
  DependencyPriority reference_;
  DependencyPriority incremental_;
  std::vector<double> ref_out_;
  std::vector<double> inc_out_;
};

TEST(DeterminismTest, IncrementalMatchesFullRecomputeBitwise) {
  const JobSet jobs = WorkloadGenerator(contended_config(10), 311).generate();
  DspScheduler sched;
  DspParams params;
  DualProbe probe(params);
  Engine engine(ClusterSpec::ec2(4), jobs, sched, &probe, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.tasks_finished, total_tasks(jobs));
  ASSERT_GT(probe.epochs, 10);
  EXPECT_EQ(probe.incremental_mismatches, 0);
  EXPECT_EQ(probe.range_mismatches, 0);
  EXPECT_EQ(probe.skip_path_mismatches, 0);
}

TEST(DeterminismTest, IncrementalMatchesFullRecomputeUnderNodeEvents) {
  // Failures, slowdowns and recoveries change node rates out from under
  // waiting tasks; the dirty-bit plumbing must invalidate those jobs too.
  const JobSet jobs = WorkloadGenerator(contended_config(8), 313).generate();
  DspScheduler sched;
  DspParams params;
  DualProbe probe(params);
  const ClusterSpec cluster = ClusterSpec::ec2(4);
  Engine engine(cluster, jobs, sched, &probe, fast_params());
  FailurePlan plan = FailurePlan::random_outages(cluster, 4 * kHour, 0.5, 2.0, 317);
  plan.add_slowdown(0, 10 * kSecond, 2 * kMinute, 0.5);
  engine.set_failure_plan(plan);
  engine.run();
  ASSERT_GT(probe.epochs, 10);
  EXPECT_EQ(probe.incremental_mismatches, 0);
  EXPECT_EQ(probe.range_mismatches, 0);
  EXPECT_EQ(probe.skip_path_mismatches, 0);
}

// ---------------------------------------------------------------------
// Serial branch & bound search order
// ---------------------------------------------------------------------

/// An ILP instance whose LP relaxation is fractional, so the solver
/// actually branches.
IlpProblem branching_ilp_instance() {
  IlpProblem p;
  p.machine_rates = {1.0, 1.4};
  p.tasks.resize(5);
  p.tasks[0].size_mi = 3.0;
  p.tasks[1].size_mi = 2.0;
  p.tasks[2].size_mi = 4.0;
  p.tasks[2].parents = {0};
  p.tasks[3].size_mi = 1.0;
  p.tasks[3].parents = {1};
  p.tasks[4].size_mi = 2.0;
  p.tasks[4].parents = {2, 3};
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
  EXPECT_EQ(solver.last_nodes(), 57);
  EXPECT_EQ(s.objective, 0x1.9b6db6db6db6dp+2);
  const std::vector<double> expected = {
      0x1.9b6db6db6db6dp+2, 0x0p+0, 0x0p+0, 0x1.1249249249249p+1,
      0x1p+2, 0x1.3ffffffffffffp+2, 0x0p+0, 0x1p+0, 0x1p+0, 0x0p+0,
      0x0p+0, 0x1.fffffffffffffp-1, 0x1p+0, 0x0p+0, 0x0p+0, 0x1p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 0x1p+0, 0x0p+0, 0x1p+0, 0x0p+0, 0x1p+0,
      0x0p+0, 0x0p+0, 0x1p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1p+0,
      0x0p+0, 0x1p+0, 0x0p+0, 0x0p+0};
  ASSERT_EQ(s.x.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(s.x[i], expected[i]) << "var " << i;
}

}  // namespace
}  // namespace dsp
