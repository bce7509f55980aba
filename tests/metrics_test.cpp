// Tests for RunMetrics job records, the per-class breakdown table, and
// the umbrella header.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "dsp.h"  // the umbrella header must compile standalone
#include "obs/json.h"
#include "test_util.h"
#include "trace/workload.h"

namespace dsp {
namespace {

using testing::make_independent_job;
using testing::RoundRobinScheduler;

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

TEST(JobRecordTest, RecordsEveryFinishedJob) {
  JobSet jobs;
  Job a = make_independent_job(0, 2, 1000.0, 0, 10 * kSecond);
  a.set_size_class(JobSize::kSmall);
  // Tasks take exactly 1 s; a 0.5 s deadline is guaranteed to be missed.
  Job b = make_independent_job(1, 2, 1000.0, 0, 500 * kMillisecond);
  b.set_size_class(JobSize::kLarge);
  b.set_tier(JobTier::kResearch);
  jobs.push_back(std::move(a));
  jobs.push_back(std::move(b));
  RoundRobinScheduler sched;
  Engine engine(ClusterSpec::uniform(2, 1800.0, 2.0, 2), std::move(jobs), sched,
                nullptr, fast_params());
  const RunMetrics m = engine.run();

  ASSERT_EQ(m.job_records.size(), 2u);
  for (const auto& r : m.job_records) {
    EXPECT_GT(r.finish, r.arrival);
    EXPECT_EQ(r.completion_time(), r.finish - r.arrival);
    if (r.id == 0) {
      EXPECT_EQ(r.size_class, JobSize::kSmall);
      EXPECT_TRUE(r.met_deadline);
    } else {
      EXPECT_EQ(r.size_class, JobSize::kLarge);
      EXPECT_EQ(r.tier, JobTier::kResearch);
      EXPECT_FALSE(r.met_deadline);
    }
  }
}

TEST(JobRecordTest, AvgCompletionFilterByClass) {
  RunMetrics m;
  m.job_records.push_back(
      {0, JobSize::kSmall, JobTier::kProduction, 0, 10 * kSecond, 1.0, true});
  m.job_records.push_back(
      {1, JobSize::kLarge, JobTier::kProduction, 0, 30 * kSecond, 2.0, true});
  EXPECT_DOUBLE_EQ(m.avg_completion_s(), 20.0);
  const JobSize small = JobSize::kSmall;
  EXPECT_DOUBLE_EQ(m.avg_completion_s(&small), 10.0);
  const JobSize medium = JobSize::kMedium;
  EXPECT_DOUBLE_EQ(m.avg_completion_s(&medium), 0.0);
}

TEST(JobRecordTest, ClassBreakdownTable) {
  WorkloadConfig cfg;
  cfg.job_count = 6;
  cfg.task_scale = 0.01;
  DspSystem system;
  const RunMetrics m = system.run(
      ClusterSpec::ec2(4), WorkloadGenerator(cfg, 71).generate(), fast_params());
  const Table t = job_class_table(m, "per-class");
  const std::string out = t.render();
  EXPECT_NE(out.find("small"), std::string::npos);
  EXPECT_NE(out.find("medium"), std::string::npos);
  EXPECT_NE(out.find("large"), std::string::npos);
  EXPECT_EQ(t.row_count(), 3u);
}

TEST(MetricSeriesTest, OutOfRangeIndicesThrow) {
  MetricSeries series({"DSP", "Aalo"}, {150, 300});
  RunMetrics m;
  series.set(1, 1, m);  // in range
  EXPECT_THROW(series.set(2, 0, m), std::out_of_range);
  EXPECT_THROW(series.set(0, 2, m), std::out_of_range);
  EXPECT_THROW(series.at(2, 0), std::out_of_range);
  EXPECT_THROW(series.at(0, 2), std::out_of_range);
  try {
    series.at(5, 7);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    // The message names the offending indices and the grid shape.
    const std::string what = e.what();
    EXPECT_NE(what.find("method=5"), std::string::npos) << what;
    EXPECT_NE(what.find("x=7"), std::string::npos) << what;
    EXPECT_NE(what.find("2 methods"), std::string::npos) << what;
  }
}

TEST(MetricSeriesTest, WritesParsableJson) {
  MetricSeries series({"DSP"}, {150, 300}, "jobs");
  RunMetrics m;
  m.makespan = 10 * kSecond;
  m.tasks_finished = 20;
  series.set(0, 0, m);
  m.tasks_finished = 40;
  series.set(0, 1, m);

  std::ostringstream os;
  write_json(os, series);
  obs::json::Value root;
  std::string error;
  ASSERT_TRUE(obs::json::parse(os.str(), root, &error)) << error;
  EXPECT_EQ(root.at_path("x_label")->string, "jobs");
  ASSERT_EQ(root.find("cells")->array.size(), 2u);
  const auto& cell = root.find("cells")->array[0];
  EXPECT_EQ(cell.find("method")->string, "DSP");
  EXPECT_DOUBLE_EQ(cell.find("x")->number, 150.0);
  EXPECT_DOUBLE_EQ(cell.at_path("metrics.makespan_s")->number, 10.0);
  EXPECT_DOUBLE_EQ(cell.at_path("metrics.tasks_finished")->number, 20.0);
}

TEST(RunMetricsJsonTest, CarriesAuditCounters) {
  RunMetrics m;
  m.preemptions = 3;
  m.suppressed_preemptions = 5;
  m.preempt_evaluations = 11;
  m.preempt_blocked_dependency = 2;
  m.preempt_no_victim = 1;
  std::ostringstream os;
  write_json(os, m);
  obs::json::Value root;
  std::string error;
  ASSERT_TRUE(obs::json::parse(os.str(), root, &error)) << error;
  EXPECT_DOUBLE_EQ(root.at_path("preemptions")->number, 3.0);
  EXPECT_DOUBLE_EQ(root.at_path("suppressed_preemptions")->number, 5.0);
  EXPECT_DOUBLE_EQ(root.at_path("preempt_evaluations")->number, 11.0);
  EXPECT_DOUBLE_EQ(root.at_path("preempt_blocked_dependency")->number, 2.0);
  EXPECT_DOUBLE_EQ(root.at_path("preempt_no_victim")->number, 1.0);
}

TEST(TableIiTest, DefaultsMatchThePaper) {
  // Table II of the paper, value by value, each at its one home
  // (documented deviations: tau and rho — see DESIGN.md §7).
  const DspParams p;
  EXPECT_DOUBLE_EQ(p.delta, 0.35);    // minimum required ratio
  EXPECT_DOUBLE_EQ(p.gamma, 0.5);     // level coefficient in (0,1)
  EXPECT_DOUBLE_EQ(p.omega1, 0.5);    // remaining-time weight
  EXPECT_DOUBLE_EQ(p.omega2, 0.3);    // waiting-time weight
  EXPECT_DOUBLE_EQ(p.omega3, 0.2);    // allowable-waiting-time weight
  EXPECT_DOUBLE_EQ(p.omega1 + p.omega2 + p.omega3, 1.0);
  EXPECT_EQ(p.epsilon, 1 * kSecond);  // urgency threshold on t^a
  EXPECT_DOUBLE_EQ(p.rho, 200.0);     // PP rank distance (deviation)
  EXPECT_EQ(kTau, 10 * kMinute);      // Table II: 0.05 s (deviation)
  // The adaptive-delta controller's bounds (§IV-B) hold the initial delta.
  EXPECT_DOUBLE_EQ(kDeltaMin, 0.05);
  EXPECT_DOUBLE_EQ(kDeltaMax, 0.80);
  EXPECT_DOUBLE_EQ(kDeltaGrowAbove, 0.50);
  EXPECT_DOUBLE_EQ(kDeltaShrinkBelow, 0.10);
  EXPECT_LT(kDeltaMin, p.delta);
  EXPECT_LT(p.delta, kDeltaMax);
  // theta1/theta2 (CPU and memory weights in g(k)) belong to the cluster.
  for (const ClusterSpec& cluster :
       {ClusterSpec::real_cluster(), ClusterSpec::ec2()}) {
    EXPECT_DOUBLE_EQ(cluster.theta1(), 0.5);
    EXPECT_DOUBLE_EQ(cluster.theta2(), 0.5);
  }
  EXPECT_DOUBLE_EQ(kSrptAlpha, 0.5);  // SRPT's waiting-time weight
  EXPECT_DOUBLE_EQ(kSrptBeta, 1.0);   // SRPT's remaining-time weight
  EXPECT_EQ(kCtxSwitch, 50 * kMillisecond);  // sigma = 0.05 s
  EXPECT_EQ(kRecovery, 250 * kMillisecond);  // t^r, checkpoint restore
  const EngineParams ep;
  EXPECT_EQ(ep.period, 5 * kMinute);  // "ran the scheduling every 5mins"
}

TEST(UmbrellaHeaderTest, ExposesCoreTypes) {
  // Touch one symbol from each subsystem to prove the umbrella pulls in
  // the full public API.
  const ClusterSpec cluster = ClusterSpec::ec2(1);
  EXPECT_EQ(cluster.size(), 1u);
  lp::Model model;
  EXPECT_FALSE(model.has_integers());
  DspParams params;
  EXPECT_DOUBLE_EQ(params.delta, 0.35);
  FailurePlan plan;
  EXPECT_TRUE(plan.empty());
  TimelineRecorder recorder;
  EXPECT_TRUE(recorder.intervals().empty());
  const TetrisScheduler tetris(TetrisScheduler::Dependency::kSimple);
  EXPECT_STREQ(tetris.name(), "TetrisW/SimDep");
}

}  // namespace
}  // namespace dsp
