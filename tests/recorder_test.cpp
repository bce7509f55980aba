// Tests for TimelineRecorder: the round/epoch bookkeeping the Chrome
// trace exporter relies on, and the agreement of its two inputs — the in-process event consumer and a
// recorded JSONL file — including the invariant checker and the audit
// replay run on that file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "analysis/analyzer.h"
#include "baselines/tetris.h"
#include "core/preemption.h"
#include "obs/events.h"
#include "sim/failures.h"
#include "sim/invariants.h"
#include "sim/recorder.h"
#include "test_util.h"
#include "trace/trace_io.h"
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

/// One small run with the recorder attached.
TimelineRecorder record_run(std::size_t node_count = 2) {
  JobSet jobs;
  jobs.push_back(make_independent_job(0, 4, 1000.0, 0, 60 * kSecond));
  RoundRobinScheduler sched;
  Engine engine(ClusterSpec::uniform(node_count, 1800.0, 2.0, 2),
                std::move(jobs), sched, nullptr, fast_params());
  TimelineRecorder recorder;
  const auto log = testing::recorder_log(recorder);
  engine.set_event_log(log.get());
  engine.run();
  return recorder;
}

TEST(RecorderRoundsTest, RecordsRoundsAndEpochs) {
  const TimelineRecorder recorder = record_run();
  // The engine fires at least the initial scheduling round, and epochs
  // tick every 500 ms while work is pending.
  ASSERT_FALSE(recorder.rounds().empty());
  EXPECT_EQ(recorder.schedule_rounds(), recorder.rounds().size());
  for (std::size_t i = 1; i < recorder.rounds().size(); ++i)
    EXPECT_GE(recorder.rounds()[i].time, recorder.rounds()[i - 1].time);
  for (std::size_t i = 1; i < recorder.epochs().size(); ++i)
    EXPECT_GT(recorder.epochs()[i], recorder.epochs()[i - 1]);
}

// ---------------------------------------------------------------------
// In-process consumer vs recorded file
// ---------------------------------------------------------------------

bool same_interval(const Interval& a, const Interval& b) {
  return a.task == b.task && a.node == b.node && a.kind == b.kind &&
         a.begin == b.begin && a.end == b.end && a.outcome == b.outcome;
}

TEST(RecorderFileTest, FileAndInProcessRecordersAgree) {
  // A contended run that exercises every slot transition: TetrisW/oDep
  // hoards slots for unready tasks, two outages kill running and
  // hoarding tasks, and DSP preemption suspends and resumes work.
  WorkloadConfig cfg;
  cfg.job_count = 8;
  cfg.task_scale = 0.01;
  cfg.min_arrival_rate = 30.0;
  cfg.max_arrival_rate = 40.0;
  const JobSet jobs = WorkloadGenerator(cfg, 331).generate();
  const ClusterSpec cluster = ClusterSpec::ec2(3);
  TetrisScheduler sched(TetrisScheduler::Dependency::kNone);
  DspPreemption policy;
  Engine engine(cluster, jobs, sched, &policy, fast_params());
  FailurePlan plan;
  plan.add_outage(0, 2 * kSecond, 3 * kSecond);
  plan.add_outage(2, 6 * kSecond, 2 * kSecond);
  engine.set_failure_plan(plan);

  const std::string events_path =
      ::testing::TempDir() + "recorder_file_test.jsonl";
  TimelineRecorder live;
  obs::EventLog log;
  log.set_consumer([&live](const obs::Event& e) { live.on_event(e); });
  ASSERT_TRUE(log.open_sink(events_path));
  engine.set_event_log(&log);
  const RunMetrics m = engine.run();
  log.close_sink();
  ASSERT_EQ(m.jobs_finished, jobs.size());
  ASSERT_GT(m.node_failures, 0u);
  ASSERT_GT(m.preemptions, 0u);
  ASSERT_GT(m.preempt_evaluations, 0u);

  const obs::EventParseResult parsed = obs::read_event_log(events_path);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  TimelineRecorder replayed;
  for (const obs::Event& e : parsed.events) replayed.on_event(e);

  const bool hoarded = std::any_of(
      live.intervals().begin(), live.intervals().end(),
      [](const Interval& iv) { return iv.kind == IntervalKind::kHoard; });
  EXPECT_TRUE(hoarded);
  ASSERT_EQ(replayed.intervals().size(), live.intervals().size());
  for (std::size_t i = 0; i < live.intervals().size(); ++i)
    EXPECT_TRUE(same_interval(replayed.intervals()[i], live.intervals()[i]))
        << "interval " << i;
  EXPECT_EQ(replayed.job_completions(), live.job_completions());
  ASSERT_EQ(replayed.rounds().size(), live.rounds().size());
  for (std::size_t i = 0; i < live.rounds().size(); ++i) {
    EXPECT_EQ(replayed.rounds()[i].time, live.rounds()[i].time);
    EXPECT_EQ(replayed.rounds()[i].jobs, live.rounds()[i].jobs);
    EXPECT_EQ(replayed.rounds()[i].placements, live.rounds()[i].placements);
  }
  EXPECT_EQ(replayed.epochs(), live.epochs());

  const auto problems = check_run_invariants(replayed, jobs, cluster);
  EXPECT_TRUE(problems.empty()) << problems.front();

  // The audit replay reads the same file, joined with the workload.
  const std::string workload_path =
      ::testing::TempDir() + "recorder_file_test.csv";
  ASSERT_TRUE(write_trace_csv(workload_path, jobs));
  const analysis::Report report =
      analysis::analyze_audit_file(events_path, workload_path, 2660.0);
  for (const auto& d : report.diagnostics())
    ADD_FAILURE() << d.rule << " " << d.subject << ": " << d.message;
  std::remove(events_path.c_str());
  std::remove(workload_path.c_str());
}

}  // namespace
}  // namespace dsp
