// Mutation tests for the dynamic run-invariant checker (sim/invariants.h):
// forge a known-good execution timeline as flight-recorder events, then
// corrupt it six ways — one per checker rule — and assert that
// check_run_invariants reports each specific violation. This guards the
// checker itself: a checker that stops detecting a class of corruption
// would silently green-light broken engine changes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/invariants.h"
#include "sim/recorder.h"
#include "test_util.h"

namespace dsp {
namespace {

constexpr SimTime kTaskTime = 1 * kSecond;  // 1000 MI at the 1000-MIPS rate

// Node rate per Eq. (1): 0.5 * 1800 + 0.5 * 2 * 100 = exactly 1000 MIPS,
// so a 1000-MI task occupies precisely one simulated second.
ClusterSpec two_node_cluster() { return ClusterSpec::uniform(2, 1800.0, 2.0, 2); }

Job make_job(JobId id, std::size_t tasks, double mem, bool chain) {
  Job job(id, tasks);
  for (TaskIndex t = 0; t < tasks; ++t) {
    job.task(t).size_mi = 1000.0;
    job.task(t).demand = Resources{0.5, mem, 10.0, 1.0};
  }
  if (chain)
    for (TaskIndex t = 1; t < tasks; ++t) job.add_dependency(t - 1, t);
  EXPECT_TRUE(job.finalize(1000.0));
  return job;
}

/// Job 0 = chain of two tasks (gids 0, 1); job 1 = two independent tasks
/// (gids 2, 3). Job ids equal their JobSet positions, as the checker's
/// gid map requires.
JobSet standard_workload() {
  JobSet jobs;
  jobs.push_back(make_job(0, 2, 0.5, true));
  jobs.push_back(make_job(1, 2, 0.5, false));
  return jobs;
}

/// The sound baseline timeline every mutation perturbs: tasks 0 and 2 on
/// node 0 with task 3 on node 1 for the first second, then the chain's
/// second task on node 0.
void emit_base(TimelineRecorder& r) {
  testing::TimelineForge f{r};
  f.start(0, 0, 0, 0);
  f.start(0, 2, 0, 0);
  f.start(0, 3, 1, 0);
  f.finish(kTaskTime, 0, 0);
  f.finish(kTaskTime, 2, 0);
  f.finish(kTaskTime, 3, 1);
  f.job_complete(kTaskTime, 1);
  f.start(kTaskTime, 1, 0, 0);
  f.finish(2 * kTaskTime, 1, 0);
  f.job_complete(2 * kTaskTime, 0);
}

std::vector<std::string> check(const TimelineRecorder& r, const JobSet& jobs) {
  return check_run_invariants(r, jobs, two_node_cluster());
}

bool mentions(const std::vector<std::string>& problems,
              const std::string& needle) {
  for (const auto& p : problems)
    if (p.find(needle) != std::string::npos) return true;
  return false;
}

TEST(CheckerMutationTest, BaselineTimelineIsSound) {
  const JobSet jobs = standard_workload();
  TimelineRecorder r;
  emit_base(r);
  const auto problems = check(r, jobs);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
}

// Rule 1: a third concurrent task on a 2-slot node. Demands stay at
// 1.5 cpu / 1.5 GB total, within capacity, so only the slot rule fires.
TEST(CheckerMutationTest, SlotOvercommitIsDetected) {
  const JobSet jobs = standard_workload();
  TimelineRecorder r;
  testing::TimelineForge f{r};
  f.start(0, 0, 0, 0);
  f.start(0, 2, 0, 0);
  f.start(0, 3, 0, 0);  // mutated: node 1 -> node 0
  f.finish(kTaskTime, 0, 0);
  f.finish(kTaskTime, 2, 0);
  f.finish(kTaskTime, 3, 0);
  f.job_complete(kTaskTime, 1);
  f.start(kTaskTime, 1, 0, 0);
  f.finish(2 * kTaskTime, 1, 0);
  f.job_complete(2 * kTaskTime, 0);
  const auto problems = check(r, jobs);
  ASSERT_FALSE(problems.empty());
  EXPECT_TRUE(mentions(problems, "exceed 2 slots")) << problems.front();
}

// Rule 2: two concurrent 1.5-GB tasks on a 2-GB node — within the slot
// count, beyond the memory capacity.
TEST(CheckerMutationTest, ResourceOvercommitIsDetected) {
  JobSet jobs;
  jobs.push_back(make_job(0, 2, 1.5, false));
  TimelineRecorder r;
  testing::TimelineForge f{r};
  f.start(0, 0, 0, 0);
  f.start(0, 1, 0, 0);  // mutated: co-located despite the memory sum
  f.finish(kTaskTime, 0, 0);
  f.finish(kTaskTime, 1, 0);
  f.job_complete(kTaskTime, 0);
  const auto problems = check(r, jobs);
  ASSERT_FALSE(problems.empty());
  EXPECT_TRUE(mentions(problems, "resource overcommit")) << problems.front();
}

// Rule 3: the chain's second task starts half a second before its parent
// completes.
TEST(CheckerMutationTest, DependencyViolationIsDetected) {
  const JobSet jobs = standard_workload();
  TimelineRecorder r;
  testing::TimelineForge f{r};
  f.start(0, 0, 0, 0);
  f.start(0, 2, 0, 0);
  f.start(0, 3, 1, 0);
  f.start(kTaskTime / 2, 1, 1, 0);  // mutated: parent still running
  f.finish(kTaskTime, 0, 0);
  f.finish(kTaskTime, 2, 0);
  f.finish(kTaskTime, 3, 1);
  f.job_complete(kTaskTime, 1);
  f.finish(3 * kTaskTime / 2, 1, 1);
  f.job_complete(3 * kTaskTime / 2, 0);
  const auto problems = check(r, jobs);
  ASSERT_FALSE(problems.empty());
  EXPECT_TRUE(mentions(problems, "before parent")) << problems.front();
}

// Rule 4: task 3's resumed interval begins while its first interval is
// still open. The two pieces still sum to exactly 1000 MI so the work-
// conservation rule stays quiet — only the serialization rule may fire.
TEST(CheckerMutationTest, DoubleOccupancyIsDetected) {
  const JobSet jobs = standard_workload();
  TimelineRecorder r;
  testing::TimelineForge f{r};
  f.start(0, 0, 0, 0);
  f.start(0, 2, 0, 0);
  f.start(0, 3, 1, 0);
  f.suspend(7 * kTaskTime / 10, 3, 1);
  f.start(4 * kTaskTime / 10, 3, 1, 0);  // mutated: overlaps above
  f.finish(7 * kTaskTime / 10, 3, 1);
  f.finish(kTaskTime, 0, 0);
  f.finish(kTaskTime, 2, 0);
  f.job_complete(kTaskTime, 1);  // job 1's last finish is task 2's
  f.start(kTaskTime, 1, 0, 0);
  f.finish(2 * kTaskTime, 1, 0);
  f.job_complete(2 * kTaskTime, 0);
  const auto problems = check(r, jobs);
  ASSERT_FALSE(problems.empty());
  EXPECT_TRUE(mentions(problems, "occupies two slots at once"))
      << problems.front();
}

// Rule 5, both halves: a completion record that disagrees with the last
// task finish, and a job with no completion record at all.
TEST(CheckerMutationTest, CompletionRecordCorruptionIsDetected) {
  const JobSet jobs = standard_workload();
  TimelineRecorder r;
  testing::TimelineForge f{r};
  f.start(0, 0, 0, 0);
  f.start(0, 2, 0, 0);
  f.start(0, 3, 1, 0);
  f.finish(kTaskTime, 0, 0);
  f.finish(kTaskTime, 2, 0);
  f.finish(kTaskTime, 3, 1);
  // mutated: job 1's completion record dropped entirely
  f.start(kTaskTime, 1, 0, 0);
  f.finish(2 * kTaskTime, 1, 0);
  f.job_complete(3 * kTaskTime, 0);  // mutated: half a run too late
  const auto problems = check(r, jobs);
  EXPECT_TRUE(mentions(problems, "has no completion record"))
      << (problems.empty() ? "" : problems.front());
  EXPECT_TRUE(mentions(problems, "!= last task finish"))
      << (problems.empty() ? "" : problems.front());
}

// Rule 6: task 3 finishes after only 0.4 s of productive time — 400 MI
// executed against a 1000-MI size.
TEST(CheckerMutationTest, LostWorkIsDetected) {
  const JobSet jobs = standard_workload();
  TimelineRecorder r;
  testing::TimelineForge f{r};
  f.start(0, 0, 0, 0);
  f.start(0, 2, 0, 0);
  f.start(0, 3, 1, 0);
  f.finish(kTaskTime, 0, 0);
  f.finish(kTaskTime, 2, 0);
  f.finish(4 * kTaskTime / 10, 3, 1);  // mutated: early finish
  f.job_complete(kTaskTime, 1);
  f.start(kTaskTime, 1, 0, 0);
  f.finish(2 * kTaskTime, 1, 0);
  f.job_complete(2 * kTaskTime, 0);
  const auto problems = check(r, jobs);
  ASSERT_FALSE(problems.empty());
  EXPECT_TRUE(mentions(problems, "executed 400.0 MI")) << problems.front();
  // The same timeline passes once work conservation is waived, as it is
  // for restart-mode (SRPT) runs.
  InvariantOptions options;
  options.check_work_conservation = false;
  EXPECT_TRUE(
      check_run_invariants(r, jobs, two_node_cluster(), options).empty());
}

}  // namespace
}  // namespace dsp
