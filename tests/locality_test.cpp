// Tests for the data-locality extension (§VI future work): transfer
// charging, locality-aware placement and metrics.
#include <gtest/gtest.h>

#include "core/dsp_system.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/workload.h"

namespace dsp {
namespace {

using testing::make_independent_job;
using testing::PinnedScheduler;
using testing::RoundRobinScheduler;

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

/// One 10 s task whose 500 MB input lives on node 0.
JobSet pinned_input_job() {
  JobSet jobs;
  Job job = make_independent_job(0, 1, 10000.0);
  job.task(0).input_nodes = {0};
  job.task(0).input_mb = 500.0;
  jobs.push_back(std::move(job));
  return jobs;
}

TEST(LocalityTest, LocalLaunchPaysNoTransfer) {
  PinnedScheduler sched(0);
  Engine engine(ClusterSpec::uniform(2, 1800.0, 2.0, 1), pinned_input_job(),
                sched, nullptr, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.makespan, 10 * kSecond);
  EXPECT_EQ(m.locality_local, 1u);
  EXPECT_EQ(m.locality_remote, 0u);
  EXPECT_DOUBLE_EQ(m.locality_hit_rate(), 1.0);
}

TEST(LocalityTest, RemoteLaunchPaysTransfer) {
  // 500 MB at kRemoteReadBwMbps (100 MB/s) = 5 s of fetch before the
  // 10 s of work.
  PinnedScheduler sched(1);
  Engine engine(ClusterSpec::uniform(2, 1800.0, 2.0, 1), pinned_input_job(),
                sched, nullptr, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.makespan, 15 * kSecond);
  EXPECT_EQ(m.locality_remote, 1u);
  EXPECT_DOUBLE_EQ(m.locality_hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(m.overhead_s, 5.0);
}

TEST(LocalityTest, TransferTimeQuery) {
  PinnedScheduler sched(0);
  Engine engine(ClusterSpec::uniform(3, 1800.0, 2.0, 1), pinned_input_job(),
                sched, nullptr, fast_params());
  EXPECT_EQ(engine.transfer_time(0, 0), 0);
  EXPECT_EQ(engine.transfer_time(0, 1), 5 * kSecond);
  EXPECT_EQ(engine.transfer_time(0, 2), 5 * kSecond);
}

TEST(LocalityTest, UnconstrainedTasksAreLocalEverywhere) {
  Task t;
  EXPECT_TRUE(t.input_local_to(0));
  EXPECT_TRUE(t.input_local_to(17));
  t.input_nodes = {2, 5};
  EXPECT_TRUE(t.input_local_to(2));
  EXPECT_TRUE(t.input_local_to(5));
  EXPECT_FALSE(t.input_local_to(3));
}

TEST(LocalityTest, DspSchedulerPrefersInputNode) {
  // Even though node 1 has a slightly smaller backlog estimate, the
  // locality-aware heuristic must land the task on node 0, avoiding the
  // large fetch.
  DspScheduler sched;
  Engine engine(ClusterSpec::uniform(3, 1800.0, 2.0, 1), pinned_input_job(),
                sched, nullptr, fast_params());
  const RunMetrics m = engine.run();
  EXPECT_EQ(m.locality_local, 1u);
  EXPECT_EQ(m.makespan, 10 * kSecond);
}

TEST(LocalityTest, LocalityAwarePlacementAvoidsFetches) {
  // Many input-pinned tasks: locality-aware DSP achieves a higher hit
  // rate and pays less transfer overhead than the blind variant.
  // (Makespan is not asserted: under contention, locality concentrates
  // load on the data nodes and can trade queueing delay for fetches.)
  auto build = [] {
    WorkloadConfig cfg;
    cfg.job_count = 6;
    cfg.task_scale = 0.01;
    cfg.locality_nodes = 4;
    cfg.locality_fraction = 1.0;
    cfg.input_mb_mu = 6.5;  // median ~665 MB: fetches hurt
    return WorkloadGenerator(cfg, 401).generate();
  };
  const ClusterSpec cluster = ClusterSpec::ec2(4);

  DspParams aware_params;
  aware_params.locality_aware = true;
  DspScheduler aware(aware_params);
  const RunMetrics aware_m =
      simulate(cluster, build(), aware, nullptr, fast_params());

  DspParams blind_params;
  blind_params.locality_aware = false;
  DspScheduler blind(blind_params);
  const RunMetrics blind_m =
      simulate(cluster, build(), blind, nullptr, fast_params());

  EXPECT_GT(aware_m.locality_hit_rate(), blind_m.locality_hit_rate());
  EXPECT_LT(aware_m.overhead_s, blind_m.overhead_s);
}

TEST(LocalityTest, GeneratorAssignsInputsToRootsOnly) {
  WorkloadConfig cfg;
  cfg.job_count = 6;
  cfg.task_scale = 0.02;
  cfg.locality_nodes = 10;
  cfg.locality_fraction = 1.0;
  const JobSet jobs = WorkloadGenerator(cfg, 409).generate();
  bool any_input = false;
  for (const auto& job : jobs) {
    for (TaskIndex t = 0; t < job.task_count(); ++t) {
      const Task& task = job.task(t);
      if (!job.graph().parents(t).empty()) {
        EXPECT_TRUE(task.input_nodes.empty());
        continue;
      }
      if (task.input_nodes.empty()) continue;
      any_input = true;
      EXPECT_EQ(task.input_nodes.size(),
                static_cast<std::size_t>(kLocalityReplicas));
      EXPECT_GT(task.input_mb, 0.0);
      for (int n : task.input_nodes) {
        EXPECT_GE(n, 0);
        EXPECT_LT(n, 10);
      }
    }
  }
  EXPECT_TRUE(any_input);
}

TEST(LocalityTest, GeneratorDisabledByDefault) {
  WorkloadConfig cfg;
  cfg.job_count = 3;
  cfg.task_scale = 0.01;
  const JobSet jobs = WorkloadGenerator(cfg, 419).generate();
  for (const auto& job : jobs)
    for (const auto& task : job.tasks()) EXPECT_TRUE(task.input_nodes.empty());
}

}  // namespace
}  // namespace dsp
