// Tests for workload statistics.
#include <gtest/gtest.h>

#include "test_util.h"
#include "trace/stats.h"
#include "trace/workload.h"

namespace dsp {
namespace {

using testing::make_chain_job;
using testing::make_independent_job;

TEST(WorkloadStatsTest, EmptyWorkload) {
  const WorkloadStats s = analyze_workload({});
  EXPECT_EQ(s.jobs, 0u);
  EXPECT_EQ(s.tasks, 0u);
}

TEST(WorkloadStatsTest, HandBuiltWorkload) {
  JobSet jobs;
  jobs.push_back(make_chain_job(0, 3, 1000.0, 0));          // 2 edges, depth 3
  jobs.push_back(make_independent_job(1, 2, 2000.0, kMinute));  // 0 edges
  const WorkloadStats s = analyze_workload(jobs);
  EXPECT_EQ(s.jobs, 2u);
  EXPECT_EQ(s.tasks, 5u);
  EXPECT_EQ(s.dependency_edges, 2u);
  EXPECT_DOUBLE_EQ(s.total_work_mi, 3000.0 + 4000.0);
  EXPECT_EQ(s.max_depth, 3);
  EXPECT_DOUBLE_EQ(s.size_min, 1000.0);
  EXPECT_DOUBLE_EQ(s.size_max, 2000.0);
  // 2 of 5 tasks have parents.
  EXPECT_NEAR(s.dependent_fraction, 0.4, 1e-9);
  EXPECT_EQ(s.last_arrival - s.first_arrival, kMinute);
}

TEST(WorkloadStatsTest, MatchesGeneratorShape) {
  WorkloadConfig cfg;
  cfg.job_count = 12;
  cfg.task_scale = 0.02;
  const WorkloadStats s =
      analyze_workload(WorkloadGenerator(cfg, 77).generate());
  EXPECT_EQ(s.jobs, 12u);
  EXPECT_EQ(s.jobs_by_class[0], 4u);
  EXPECT_EQ(s.jobs_by_class[1], 4u);
  EXPECT_EQ(s.jobs_by_class[2], 4u);
  EXPECT_LE(s.max_depth, kMaxLevels);
  EXPECT_LE(s.max_fanout, kMaxFanout);
  EXPECT_GT(s.dependent_fraction, 0.3);  // flat level profile binds deps
  EXPECT_GE(s.size_median, kSizeMinMi);
  EXPECT_LE(s.size_median, kSizeMaxMi);
}

TEST(WorkloadStatsTest, RenderMentionsKeyNumbers) {
  WorkloadConfig cfg;
  cfg.job_count = 6;
  cfg.task_scale = 0.02;
  const WorkloadStats s =
      analyze_workload(WorkloadGenerator(cfg, 79).generate());
  const std::string text = s.render();
  EXPECT_NE(text.find("jobs: 6"), std::string::npos);
  EXPECT_NE(text.find("DAG depth"), std::string::npos);
  EXPECT_NE(text.find("total work"), std::string::npos);
}

}  // namespace
}  // namespace dsp
