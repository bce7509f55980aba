// Unit + property tests for dsp_dag: TaskGraph, Job, validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dag/job.h"
#include "dag/task_graph.h"
#include "dag/validate.h"
#include "test_util.h"
#include "util/rng.h"

namespace dsp {
namespace {

using testing::kTestRate;
using testing::make_chain_job;
using testing::make_diamond_job;
using testing::make_fig2_job;

TaskGraph make_graph(std::size_t n,
                     std::initializer_list<std::pair<TaskIndex, TaskIndex>> edges) {
  TaskGraph g(n);
  for (auto [p, c] : edges) g.add_edge(p, c);
  EXPECT_TRUE(g.finalize());
  return g;
}

// ---------------------------------------------------------------------
// TaskGraph structure
// ---------------------------------------------------------------------

TEST(TaskGraphTest, EmptyGraphFinalizes) {
  TaskGraph g(0);
  EXPECT_TRUE(g.finalize());
  EXPECT_EQ(g.depth(), 0);
  EXPECT_TRUE(g.topo_order().empty());
}

TEST(TaskGraphTest, SingleTask) {
  TaskGraph g(1);
  ASSERT_TRUE(g.finalize());
  EXPECT_EQ(g.depth(), 1);
  EXPECT_EQ(g.level(0), 1);
  ASSERT_EQ(g.roots().size(), 1u);
  ASSERT_EQ(g.leaves().size(), 1u);
}

TEST(TaskGraphTest, ChainLevelsAndDepth) {
  const auto g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.depth(), 4);
  for (TaskIndex t = 0; t < 4; ++t) EXPECT_EQ(g.level(t), static_cast<int>(t) + 1);
  EXPECT_EQ(g.roots().size(), 1u);
  EXPECT_EQ(g.leaves().size(), 1u);
}

TEST(TaskGraphTest, DiamondLevels) {
  const auto g = make_graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(g.depth(), 3);
  EXPECT_EQ(g.level(0), 1);
  EXPECT_EQ(g.level(1), 2);
  EXPECT_EQ(g.level(2), 2);
  EXPECT_EQ(g.level(3), 3);
}

TEST(TaskGraphTest, ParentsAndChildren) {
  const auto g = make_graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(g.children(0).size(), 2u);
  EXPECT_EQ(g.parents(3).size(), 2u);
  EXPECT_EQ(g.parents(0).size(), 0u);
  EXPECT_EQ(g.children(3).size(), 0u);
}

TEST(TaskGraphTest, DuplicateEdgesDeduplicated) {
  TaskGraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  ASSERT_TRUE(g.finalize());
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.children(0).size(), 1u);
}

TEST(TaskGraphTest, CycleDetected) {
  TaskGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_FALSE(g.finalize());
  EXPECT_FALSE(g.finalized());
}

TEST(TaskGraphTest, TopoOrderRespectsEdges) {
  const auto g = make_graph(6, {{0, 2}, {1, 2}, {2, 3}, {2, 4}, {4, 5}});
  const auto topo = g.topo_order();
  ASSERT_EQ(topo.size(), 6u);
  std::vector<std::size_t> pos(6);
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (TaskIndex t = 0; t < 6; ++t)
    for (TaskIndex c : g.children(t)) EXPECT_LT(pos[t], pos[c]);
}

TEST(TaskGraphTest, TopoOrderDeterministicSmallestFirst) {
  // Independent tasks come out in index order (Kahn + min-heap).
  TaskGraph g(4);
  ASSERT_TRUE(g.finalize());
  const auto topo = g.topo_order();
  for (TaskIndex t = 0; t < 4; ++t) EXPECT_EQ(topo[t], t);
}

TEST(TaskGraphTest, DependsOnDirectAndTransitive) {
  const auto g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(g.depends_on(1, 0));
  EXPECT_TRUE(g.depends_on(3, 0));
  EXPECT_FALSE(g.depends_on(0, 3));
  EXPECT_FALSE(g.depends_on(0, 0));
}

TEST(TaskGraphTest, DependsOnSiblingsFalse) {
  const auto g = make_graph(3, {{0, 1}, {0, 2}});
  EXPECT_FALSE(g.depends_on(1, 2));
  EXPECT_FALSE(g.depends_on(2, 1));
}

TEST(TaskGraphTest, DependsOnDiamond) {
  const auto g = make_graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  EXPECT_TRUE(g.depends_on(3, 0));
  EXPECT_TRUE(g.depends_on(3, 1));
  EXPECT_TRUE(g.depends_on(3, 2));
  EXPECT_FALSE(g.depends_on(1, 2));
}

TEST(TaskGraphTest, IsolatedTasksAreRootsAndLeaves) {
  const auto g = make_graph(3, {{0, 1}});
  const auto roots = g.roots();
  const auto leaves = g.leaves();
  EXPECT_NE(std::find(roots.begin(), roots.end(), 2u), roots.end());
  EXPECT_NE(std::find(leaves.begin(), leaves.end(), 2u), leaves.end());
}

// ---------------------------------------------------------------------
// Property tests over random DAGs
// ---------------------------------------------------------------------

class RandomDagTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagTest, LevelsAreMonotoneAlongEdges) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 60));
  TaskGraph g(n);
  // Random forward edges guarantee acyclicity.
  for (std::size_t e = 0; e < n * 2; ++e) {
    const auto a = static_cast<TaskIndex>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    const auto b = static_cast<TaskIndex>(
        rng.uniform_int(a + 1, static_cast<std::int64_t>(n) - 1));
    g.add_edge(a, b);
  }
  ASSERT_TRUE(g.finalize());
  for (TaskIndex t = 0; t < n; ++t)
    for (TaskIndex c : g.children(t)) EXPECT_LT(g.level(t), g.level(c));
}

TEST_P(RandomDagTest, TopoOrderIsValidPermutation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 60));
  TaskGraph g(n);
  for (std::size_t e = 0; e < n; ++e) {
    const auto a = static_cast<TaskIndex>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto b = static_cast<TaskIndex>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (a < b) g.add_edge(a, b);
  }
  ASSERT_TRUE(g.finalize());
  const auto topo = g.topo_order();
  std::set<TaskIndex> seen(topo.begin(), topo.end());
  EXPECT_EQ(seen.size(), n);
}

TEST_P(RandomDagTest, DependsOnAgreesWithDescendantSets) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 30));
  TaskGraph g(n);
  for (std::size_t e = 0; e < n * 2; ++e) {
    const auto a = static_cast<TaskIndex>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    const auto b = static_cast<TaskIndex>(
        rng.uniform_int(a + 1, static_cast<std::int64_t>(n) - 1));
    g.add_edge(a, b);
  }
  ASSERT_TRUE(g.finalize());
  // Reference reachability by DFS per node.
  for (TaskIndex s = 0; s < n; ++s) {
    std::vector<bool> reach(n, false);
    std::vector<TaskIndex> stack{s};
    while (!stack.empty()) {
      const TaskIndex u = stack.back();
      stack.pop_back();
      for (TaskIndex c : g.children(u))
        if (!reach[c]) {
          reach[c] = true;
          stack.push_back(c);
        }
    }
    for (TaskIndex t = 0; t < n; ++t)
      EXPECT_EQ(g.depends_on(t, s), reach[t]) << "s=" << s << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagTest, ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// Job: finalize, per-level deadlines, critical path
// ---------------------------------------------------------------------

TEST(JobTest, FinalizeAssignsLevels) {
  const Job job = make_diamond_job(1, 1000.0);
  EXPECT_EQ(job.task(0).level, 1);
  EXPECT_EQ(job.task(1).level, 2);
  EXPECT_EQ(job.task(3).level, 3);
}

TEST(JobTest, PerLevelDeadlineRule) {
  // Chain of 3 tasks, 1000 MI each at 1000 MIPS => 1 s each.
  // Job deadline D: level-3 deadline = D; level-2 = D - 1s; level-1 = D - 2s.
  const SimTime d = 100 * kSecond;
  const Job job = make_chain_job(2, 3, 1000.0, 0, d);
  EXPECT_EQ(job.task(2).deadline, d);
  EXPECT_EQ(job.task(1).deadline, d - kSecond);
  EXPECT_EQ(job.task(0).deadline, d - 2 * kSecond);
}

TEST(JobTest, PerLevelDeadlineUsesMaxPerLevel) {
  // Two parallel chains with different sizes; the max execution time at
  // each level is what propagates.
  Job job(3, 4);
  job.task(0).size_mi = 1000.0;  // level 1
  job.task(1).size_mi = 1000.0;  // level 1
  job.task(2).size_mi = 2000.0;  // level 2, 2 s at test rate
  job.task(3).size_mi = 500.0;   // level 2
  for (TaskIndex t = 0; t < 4; ++t) job.task(t).demand = Resources{1, 1, 0, 0};
  job.add_dependency(0, 2);
  job.add_dependency(1, 3);
  job.set_deadline(50 * kSecond);
  ASSERT_TRUE(job.finalize(kTestRate));
  EXPECT_EQ(job.task(2).deadline, 50 * kSecond);
  // Level 1 deadline = D - max level-2 exec = 50 s - 2 s.
  EXPECT_EQ(job.task(0).deadline, 48 * kSecond);
}

TEST(JobTest, NoDeadlineSentinelSurvivesLevelDerivation) {
  // With the kMaxTime "no deadline" sentinel, the per-level rule must
  // propagate the sentinel unchanged instead of subtracting execution
  // times from INT64_MAX — consumers test `deadline == kMaxTime`.
  const Job job = make_chain_job(0, 3, 1000.0);
  for (TaskIndex t = 0; t < 3; ++t)
    EXPECT_EQ(job.task(t).deadline, kMaxTime) << "task " << t;
}

TEST(JobTest, FinalizeRejectsNonPositiveReferenceRate) {
  for (const double rate : {0.0, -5.0}) {
    Job job(0, 1);
    job.task(0).size_mi = 1000.0;
    job.task(0).demand = Resources{1, 1, 0, 0};
    EXPECT_FALSE(job.finalize(rate)) << "rate " << rate;
  }
}

TEST(JobTest, CriticalPathOfChainIsSum) {
  const Job job = make_chain_job(4, 5, 1000.0);
  EXPECT_EQ(job.critical_path_time(kTestRate), 5 * kSecond);
}

TEST(JobTest, CriticalPathOfIndependentIsMax) {
  Job job(5, 3);
  job.task(0).size_mi = 500.0;
  job.task(1).size_mi = 3000.0;
  job.task(2).size_mi = 1000.0;
  for (TaskIndex t = 0; t < 3; ++t) job.task(t).demand = Resources{1, 1, 0, 0};
  ASSERT_TRUE(job.finalize(kTestRate));
  EXPECT_EQ(job.critical_path_time(kTestRate), 3 * kSecond);
}

TEST(JobTest, TotalWork) {
  const Job job = make_chain_job(6, 4, 250.0);
  EXPECT_DOUBLE_EQ(job.total_work_mi(), 1000.0);
}

TEST(JobTest, TotalTasksAcrossSet) {
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 3, 10.0));
  jobs.push_back(make_diamond_job(1, 10.0));
  EXPECT_EQ(total_tasks(jobs), 7u);
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

TEST(ValidateTest, CleanJobPasses) {
  const Job job = make_fig2_job(0, 1000.0, 0, kMaxTime);
  EXPECT_TRUE(validate_job(job).empty());
}

TEST(ValidateTest, RejectsNonPositiveSize) {
  Job job(0, 1);
  job.task(0).size_mi = 0.0;
  job.task(0).demand = Resources{1, 1, 0, 0};
  ASSERT_TRUE(job.finalize(kTestRate));
  const auto problems = validate_job(job);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("non-positive size"), std::string::npos);
}

TEST(ValidateTest, RejectsNegativeDemand) {
  Job job(0, 1);
  job.task(0).size_mi = 1.0;
  job.task(0).demand = Resources{-1, 1, 0, 0};
  ASSERT_TRUE(job.finalize(kTestRate));
  EXPECT_FALSE(validate_job(job).empty());
}

TEST(ValidateTest, RejectsDeadlineBeforeArrival) {
  const Job job = make_chain_job(0, 2, 1.0, 10 * kSecond, 5 * kSecond);
  const auto problems = validate_job(job);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("deadline"), std::string::npos);
}

TEST(ValidateTest, EnforcesDepthLimit) {
  const Job job = make_chain_job(0, 8, 1.0);
  DagLimits limits;
  limits.max_depth = 5;
  const auto problems = validate_job(job, limits);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.back().find("depth"), std::string::npos);
}

TEST(ValidateTest, EnforcesFanoutLimit) {
  Job job(0, 6);
  for (TaskIndex t = 0; t < 6; ++t) {
    job.task(t).size_mi = 1.0;
    job.task(t).demand = Resources{1, 1, 0, 0};
  }
  for (TaskIndex c = 1; c < 6; ++c) job.add_dependency(0, c);
  ASSERT_TRUE(job.finalize(kTestRate));
  DagLimits limits;
  limits.max_fanout = 4;
  EXPECT_FALSE(validate_job(job, limits).empty());
}

TEST(ValidateTest, UnfinalizedJobReported) {
  Job job(0, 2);
  job.task(0).size_mi = job.task(1).size_mi = 1.0;
  const auto problems = validate_job(job);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("not finalized"), std::string::npos);
}

}  // namespace
}  // namespace dsp
