#include "test_util.h"

#include <cassert>

namespace dsp::testing {
namespace {

void fill_uniform(Job& job, double size_mi) {
  for (TaskIndex t = 0; t < job.task_count(); ++t) {
    Task& task = job.task(t);
    task.size_mi = size_mi;
    // Small memory footprint so slot count, not memory, bounds concurrency
    // on the 2 GB test nodes.
    task.demand = Resources{1.0, 0.4, 0.02, 0.02};
  }
}

Job finish(Job job, SimTime arrival, SimTime deadline) {
  job.set_arrival(arrival);
  job.set_deadline(deadline);
  const bool ok = job.finalize(kTestRate);
  assert(ok);
  (void)ok;
  return job;
}

}  // namespace

Job make_independent_job(JobId id, std::size_t n, double size_mi,
                         SimTime arrival, SimTime deadline) {
  Job job(id, n);
  fill_uniform(job, size_mi);
  return finish(std::move(job), arrival, deadline);
}

Job make_chain_job(JobId id, std::size_t n, double size_mi, SimTime arrival,
                   SimTime deadline) {
  Job job(id, n);
  fill_uniform(job, size_mi);
  for (TaskIndex t = 1; t < n; ++t)
    job.add_dependency(t - 1, t);
  return finish(std::move(job), arrival, deadline);
}

Job make_diamond_job(JobId id, double size_mi, SimTime arrival,
                     SimTime deadline) {
  Job job(id, 4);
  fill_uniform(job, size_mi);
  job.add_dependency(0, 1);
  job.add_dependency(0, 2);
  job.add_dependency(1, 3);
  job.add_dependency(2, 3);
  return finish(std::move(job), arrival, deadline);
}

Job make_fig2_job(JobId id, double size_mi, SimTime arrival, SimTime deadline) {
  Job job(id, 7);
  fill_uniform(job, size_mi);
  job.add_dependency(0, 1);
  job.add_dependency(0, 2);
  job.add_dependency(1, 3);
  job.add_dependency(1, 4);
  job.add_dependency(2, 5);
  job.add_dependency(2, 6);
  return finish(std::move(job), arrival, deadline);
}

Job make_fig3_job(JobId id, double size_mi, SimTime arrival, SimTime deadline) {
  // Tasks: A=0 children 1..4; B=5 children 6..9, grandchild 10 under 6;
  //        C=11 children 12..15, grandchildren 16..18 under 12,13,14.
  Job job(id, 19);
  fill_uniform(job, size_mi);
  for (TaskIndex c = 1; c <= 4; ++c) job.add_dependency(0, c);
  for (TaskIndex c = 6; c <= 9; ++c) job.add_dependency(5, c);
  job.add_dependency(6, 10);
  for (TaskIndex c = 12; c <= 15; ++c) job.add_dependency(11, c);
  job.add_dependency(12, 16);
  job.add_dependency(13, 17);
  job.add_dependency(14, 18);
  return finish(std::move(job), arrival, deadline);
}

std::vector<TaskPlacement> RoundRobinScheduler::schedule(
    const std::vector<JobId>& jobs, Engine& engine) {
  std::vector<TaskPlacement> placements;
  std::vector<double> backlog(engine.node_count());
  for (std::size_t k = 0; k < engine.node_count(); ++k)
    backlog[k] = engine.node_backlog_mi(static_cast<int>(k));
  SimTime seq = 0;
  for (JobId j : jobs) {
    const Job& job = engine.job(j);
    for (TaskIndex t : job.graph().topo_order()) {
      int best = -1;
      for (std::size_t k = 0; k < engine.node_count(); ++k) {
        if (!engine.cluster().node(k).capacity.fits(job.task(t).demand)) continue;
        if (best < 0 || backlog[k] < backlog[static_cast<std::size_t>(best)])
          best = static_cast<int>(k);
      }
      if (best < 0) continue;
      backlog[static_cast<std::size_t>(best)] += job.task(t).size_mi;
      placements.push_back(
          TaskPlacement{engine.gid(j, t), best, engine.now() + seq++});
    }
  }
  return placements;
}

std::vector<TaskPlacement> PinnedScheduler::schedule(
    const std::vector<JobId>& jobs, Engine& engine) {
  std::vector<TaskPlacement> placements;
  SimTime seq = 0;
  for (JobId j : jobs) {
    const Job& job = engine.job(j);
    for (TaskIndex t : job.graph().topo_order())
      placements.push_back(
          TaskPlacement{engine.gid(j, t), node_, engine.now() + seq++});
  }
  return placements;
}

std::unique_ptr<obs::EventLog> recorder_log(TimelineRecorder& recorder) {
  auto log = std::make_unique<obs::EventLog>();
  log->set_consumer([&recorder](const obs::Event& e) { recorder.on_event(e); });
  return log;
}

void TimelineForge::start(SimTime t, Gid g, int node, SimTime overhead) {
  recorder.on_event({.time = t,
                     .kind = obs::EventKind::kTaskDispatch,
                     .task = g,
                     .node = static_cast<std::int16_t>(node),
                     .a = static_cast<double>(overhead)});
}

void TimelineForge::finish(SimTime t, Gid g, int node) {
  recorder.on_event({.time = t,
                     .kind = obs::EventKind::kTaskFinish,
                     .task = g,
                     .node = static_cast<std::int16_t>(node)});
}

void TimelineForge::suspend(SimTime t, Gid g, int node) {
  recorder.on_event({.time = t,
                     .kind = obs::EventKind::kTaskPreempt,
                     .task = g,
                     .node = static_cast<std::int16_t>(node)});
}

void TimelineForge::job_complete(SimTime t, JobId j) {
  recorder.on_event(
      {.time = t, .kind = obs::EventKind::kJobComplete, .job = j});
}

}  // namespace dsp::testing
