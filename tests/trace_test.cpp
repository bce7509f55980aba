// Workload generator and trace I/O tests.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "dag/validate.h"
#include "trace/trace_io.h"
#include "trace/workload.h"

namespace dsp {
namespace {

WorkloadConfig small_config(std::size_t jobs = 9) {
  WorkloadConfig cfg;
  cfg.job_count = jobs;
  cfg.task_scale = 0.02;  // small/medium/large ~ 4..16/20/40 tasks
  return cfg;
}

// ---------------------------------------------------------------------
// Generator structure
// ---------------------------------------------------------------------

TEST(WorkloadTest, GeneratesRequestedJobCount) {
  const JobSet jobs = WorkloadGenerator(small_config(9), 1).generate();
  EXPECT_EQ(jobs.size(), 9u);
}

TEST(WorkloadTest, SizeClassesCycleEqually) {
  const JobSet jobs = WorkloadGenerator(small_config(9), 1).generate();
  int counts[3] = {0, 0, 0};
  for (const auto& j : jobs) ++counts[static_cast<int>(j.size_class())];
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 3);
  EXPECT_EQ(counts[2], 3);
}

TEST(WorkloadTest, TaskCountsMatchClasses) {
  Rng rng(5);
  EXPECT_EQ(tasks_for_class(JobSize::kLarge, 1.0, rng), 2000u);
  EXPECT_EQ(tasks_for_class(JobSize::kMedium, 1.0, rng), 1000u);
  const std::size_t small = tasks_for_class(JobSize::kSmall, 1.0, rng);
  EXPECT_GE(small, 200u);
  EXPECT_LE(small, 800u);
  // Scaled counts never drop below 2.
  EXPECT_GE(tasks_for_class(JobSize::kSmall, 0.0001, rng), 2u);
}

TEST(WorkloadTest, ArrivalsAreMonotoneNonNegative) {
  const JobSet jobs = WorkloadGenerator(small_config(20), 3).generate();
  SimTime prev = -1;
  for (const auto& j : jobs) {
    EXPECT_GE(j.arrival(), 0);
    EXPECT_GE(j.arrival(), prev);
    prev = j.arrival();
  }
}

TEST(WorkloadTest, ArrivalRateWithinConfiguredBand) {
  // With rate in [2,5] jobs/min, 300 jobs span roughly 60..150 min.
  WorkloadConfig cfg = small_config(300);
  const JobSet jobs = WorkloadGenerator(cfg, 7).generate();
  const double span_min = to_seconds(jobs.back().arrival()) / 60.0;
  EXPECT_GT(span_min, 300.0 / 5.0 * 0.7);
  EXPECT_LT(span_min, 300.0 / 2.0 * 1.4);
}

TEST(WorkloadTest, JobsAreFinalizedAndValid) {
  WorkloadConfig cfg = small_config(12);
  const JobSet jobs = WorkloadGenerator(cfg, 11).generate();
  DagLimits limits;
  limits.max_depth = kMaxLevels;
  limits.max_fanout = kMaxFanout;
  for (const Job& job : jobs) {
    const auto problems = validate_job(job, limits);
    EXPECT_TRUE(problems.empty())
        << "job " << job.id() << ": "
        << (problems.empty() ? "" : problems.front());
  }
}

TEST(WorkloadTest, DagRespectsDepthCap) {
  WorkloadConfig cfg = small_config(30);
  const JobSet jobs = WorkloadGenerator(cfg, 13).generate();
  for (const auto& j : jobs) EXPECT_LE(j.graph().depth(), kMaxLevels);
}

TEST(WorkloadTest, DagRespectsFanoutCap) {
  WorkloadConfig cfg = small_config(30);
  const JobSet jobs = WorkloadGenerator(cfg, 17).generate();
  for (const auto& j : jobs)
    for (TaskIndex t = 0; t < j.task_count(); ++t)
      EXPECT_LE(j.graph().children(t).size(), kMaxFanout);
}

TEST(WorkloadTest, DemandsWithinConfiguredClamps) {
  WorkloadConfig cfg = small_config(15);
  const JobSet jobs = WorkloadGenerator(cfg, 19).generate();
  for (const auto& j : jobs)
    for (const auto& t : j.tasks()) {
      EXPECT_GE(t.demand.cpu, cfg.cpu_min);
      EXPECT_LE(t.demand.cpu, cfg.cpu_max);
      EXPECT_GE(t.demand.mem, cfg.mem_min);
      EXPECT_LE(t.demand.mem, cfg.mem_max);
      EXPECT_DOUBLE_EQ(t.demand.disk, kDiskMb);
      EXPECT_DOUBLE_EQ(t.demand.bw, kBwMbps);
      EXPECT_GE(t.size_mi, kSizeMinMi);
      EXPECT_LE(t.size_mi, kSizeMaxMi);
    }
}

TEST(WorkloadTest, DeadlineAfterArrivalWithSlack) {
  WorkloadConfig cfg = small_config(15);
  const JobSet jobs = WorkloadGenerator(cfg, 23).generate();
  for (const auto& j : jobs) {
    EXPECT_GT(j.deadline(), j.arrival());
    const SimTime cp = j.critical_path_time(kReferenceRate);
    // Deadline slack between the configured min (production) and max
    // (research).
    const double slack =
        static_cast<double>(j.deadline() - j.arrival()) / static_cast<double>(cp);
    EXPECT_GE(slack, kProdSlackMin - 0.01);
    EXPECT_LE(slack, kResSlackMax + 0.01);
  }
}

TEST(WorkloadTest, TiersRoughlyBalanced) {
  WorkloadConfig cfg = small_config(120);
  const JobSet jobs = WorkloadGenerator(cfg, 29).generate();
  int production = 0;
  for (const auto& j : jobs)
    if (j.tier() == JobTier::kProduction) ++production;
  EXPECT_GT(production, 30);
  EXPECT_LT(production, 90);
}

TEST(WorkloadTest, DeterministicBySeed) {
  const JobSet a = WorkloadGenerator(small_config(10), 99).generate();
  const JobSet b = WorkloadGenerator(small_config(10), 99).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival(), b[i].arrival());
    EXPECT_EQ(a[i].deadline(), b[i].deadline());
    ASSERT_EQ(a[i].task_count(), b[i].task_count());
    for (TaskIndex t = 0; t < a[i].task_count(); ++t)
      EXPECT_DOUBLE_EQ(a[i].task(t).size_mi, b[i].task(t).size_mi);
    EXPECT_EQ(a[i].graph().edge_count(), b[i].graph().edge_count());
  }
}

TEST(WorkloadTest, SeedsProduceDifferentWorkloads) {
  const JobSet a = WorkloadGenerator(small_config(10), 1).generate();
  const JobSet b = WorkloadGenerator(small_config(10), 2).generate();
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i)
    if (a[i].arrival() != b[i].arrival()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(WorkloadTest, MakeJobSingle) {
  WorkloadGenerator gen(small_config(), 31);
  const Job job = gen.make_job(7, JobSize::kMedium, 5 * kSecond);
  EXPECT_EQ(job.id(), 7u);
  EXPECT_EQ(job.arrival(), 5 * kSecond);
  EXPECT_EQ(job.size_class(), JobSize::kMedium);
  EXPECT_TRUE(job.finalized());
}

// ---------------------------------------------------------------------
// Trace I/O
// ---------------------------------------------------------------------

TEST(TraceIoTest, RoundTripPreservesWorkload) {
  WorkloadConfig cfg = small_config(6);
  const JobSet original = WorkloadGenerator(cfg, 37).generate();

  std::stringstream buffer;
  write_trace_csv(buffer, original);
  const TraceParseResult parsed =
      read_trace_csv(buffer, kReferenceRate);
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
  ASSERT_EQ(parsed.jobs.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const Job& a = original[i];
    const Job& b = parsed.jobs[i];
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(a.arrival(), b.arrival());
    EXPECT_EQ(a.deadline(), b.deadline());
    EXPECT_EQ(a.size_class(), b.size_class());
    EXPECT_EQ(a.tier(), b.tier());
    ASSERT_EQ(a.task_count(), b.task_count());
    EXPECT_EQ(a.graph().edge_count(), b.graph().edge_count());
    for (TaskIndex t = 0; t < a.task_count(); ++t) {
      EXPECT_NEAR(a.task(t).size_mi, b.task(t).size_mi,
                  a.task(t).size_mi * 1e-5);
      EXPECT_NEAR(a.task(t).demand.cpu, b.task(t).demand.cpu, 1e-5);
      EXPECT_EQ(a.task(t).level, b.task(t).level);
    }
  }
}

TEST(TraceIoTest, ReportsMalformedRows) {
  std::stringstream in(
      "job_id,task_index,size_mi,cpu,mem,disk,bw,arrival_us,deadline_us,"
      "size_class,tier,parents\n"
      "0,0,notanumber,1,1,0,0,0,100,small,production,\n");
  const TraceParseResult parsed = read_trace_csv(in, 1000.0);
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.jobs.empty());
}

TEST(TraceIoTest, ReportsWrongFieldCount) {
  std::stringstream in("job_id,task_index\n0,0\n");
  const TraceParseResult parsed = read_trace_csv(in, 1000.0);
  EXPECT_FALSE(parsed.ok());
}

TEST(TraceIoTest, ReportsBadParentReference) {
  std::stringstream in(
      "job_id,task_index,size_mi,cpu,mem,disk,bw,arrival_us,deadline_us,"
      "size_class,tier,parents\n"
      "0,0,10,1,1,0,0,0,1000000,small,production,9\n");
  const TraceParseResult parsed = read_trace_csv(in, 1000.0);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.errors.front().find("parent"), std::string::npos);
}

TEST(TraceIoTest, ReportsCyclicJob) {
  std::stringstream in(
      "job_id,task_index,size_mi,cpu,mem,disk,bw,arrival_us,deadline_us,"
      "size_class,tier,parents\n"
      "0,0,10,1,1,0,0,0,1000000,small,production,1\n"
      "0,1,10,1,1,0,0,0,1000000,small,production,0\n");
  const TraceParseResult parsed = read_trace_csv(in, 1000.0);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.errors.front().find("cyclic"), std::string::npos);
}

TEST(TraceIoTest, RejectsBadReferenceRateOnceNamingIt) {
  // An empty cluster's mean rate is 0; finalizing every job at it used to
  // report each one as cyclic.
  const std::string trace =
      "job_id,task_index,size_mi,cpu,mem,disk,bw,arrival_us,deadline_us,"
      "size_class,tier,parents\n"
      "0,0,10,1,1,0,0,0,1000000,small,production,\n"
      "1,0,10,1,1,0,0,0,1000000,small,production,\n";
  for (const double rate : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(rate);
    std::stringstream in(trace);
    const TraceParseResult parsed = read_trace_csv(in, rate);
    EXPECT_TRUE(parsed.jobs.empty());
    ASSERT_EQ(parsed.errors.size(), 1u);
    EXPECT_NE(parsed.errors.front().find("reference rate"), std::string::npos)
        << parsed.errors.front();
  }
}

TEST(TraceIoTest, ParsesHandWrittenTrace) {
  std::stringstream in(
      "job_id,task_index,size_mi,cpu,mem,disk,bw,arrival_us,deadline_us,"
      "size_class,tier,parents\n"
      "3,0,100,1,0.5,0.02,0.02,0,60000000,small,research,\n"
      "3,1,200,1,0.5,0.02,0.02,0,60000000,small,research,0\n"
      "3,2,300,1,0.5,0.02,0.02,0,60000000,small,research,0;1\n");
  const TraceParseResult parsed = read_trace_csv(in, 1000.0);
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
  ASSERT_EQ(parsed.jobs.size(), 1u);
  const Job& job = parsed.jobs[0];
  EXPECT_EQ(job.id(), 3u);
  EXPECT_EQ(job.tier(), JobTier::kResearch);
  EXPECT_EQ(job.graph().parents(2).size(), 2u);
  EXPECT_EQ(job.graph().depth(), 3);
}

TEST(TraceIoTest, RoundTripPreservesLocalityFields) {
  WorkloadConfig cfg = small_config(4);
  cfg.locality_nodes = 8;
  cfg.locality_fraction = 1.0;
  const JobSet original = WorkloadGenerator(cfg, 43).generate();
  std::stringstream buffer;
  write_trace_csv(buffer, original);
  const TraceParseResult parsed = read_trace_csv(buffer, kReferenceRate);
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
  bool any_input = false;
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (TaskIndex t = 0; t < original[i].task_count(); ++t) {
      const Task& a = original[i].task(t);
      const Task& b = parsed.jobs[i].task(t);
      EXPECT_EQ(a.input_nodes, b.input_nodes);
      EXPECT_NEAR(a.input_mb, b.input_mb, std::max(1e-6, a.input_mb * 1e-5));
      any_input = any_input || !a.input_nodes.empty();
    }
  }
  EXPECT_TRUE(any_input);
}

TEST(TraceIoTest, AcceptsLegacyTwelveFieldRows) {
  std::stringstream in(
      "job_id,task_index,size_mi,cpu,mem,disk,bw,arrival_us,deadline_us,"
      "size_class,tier,parents\n"
      "0,0,100,1,0.5,0.02,0.02,0,60000000,small,research,\n");
  const TraceParseResult parsed = read_trace_csv(in, 1000.0);
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
  EXPECT_TRUE(parsed.jobs[0].task(0).input_nodes.empty());
}

TEST(TraceIoTest, MissingFileReportsError) {
  const TraceParseResult parsed =
      read_trace_csv(std::string("/nonexistent/trace.csv"), 1000.0);
  EXPECT_FALSE(parsed.ok());
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dsp_trace_test.csv";
  const JobSet original = WorkloadGenerator(small_config(3), 41).generate();
  ASSERT_TRUE(write_trace_csv(path, original));
  const TraceParseResult parsed = read_trace_csv(path, kReferenceRate);
  EXPECT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.jobs.size(), 3u);
}

}  // namespace
}  // namespace dsp
