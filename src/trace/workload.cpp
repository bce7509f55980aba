#include "trace/workload.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "dag/validate.h"
#include "util/log.h"

namespace dsp {

std::size_t tasks_for_class(JobSize size_class, double scale, Rng& rng) {
  double base = 0.0;
  switch (size_class) {
    case JobSize::kLarge: base = 2000.0; break;
    case JobSize::kMedium: base = 1000.0; break;
    case JobSize::kSmall: base = static_cast<double>(rng.uniform_int(200, 800)); break;
  }
  return static_cast<std::size_t>(std::max(2.0, std::round(base * scale)));
}

JobSet WorkloadGenerator::generate() {
  JobSet jobs;
  jobs.reserve(config_.job_count);

  // One realized arrival rate per workload, drawn from [min, max] (paper:
  // "x was randomly chosen from [2,5]").
  const double rate_per_min =
      rng_.uniform(config_.min_arrival_rate, config_.max_arrival_rate);
  const double rate_per_sec = rate_per_min / 60.0;

  static constexpr JobSize kCycle[] = {JobSize::kSmall, JobSize::kMedium,
                                       JobSize::kLarge};
  SimTime arrival = 0;
  for (std::size_t i = 0; i < config_.job_count; ++i) {
    arrival += from_seconds(rng_.exponential(rate_per_sec));
    jobs.push_back(make_job(static_cast<JobId>(i), kCycle[i % 3], arrival));
  }
  return jobs;
}

Job WorkloadGenerator::make_job(JobId id, JobSize size_class, SimTime arrival) {
  const std::size_t n = tasks_for_class(size_class, config_.task_scale, rng_);
  Job job(id, n);
  job.set_size_class(size_class);
  job.set_arrival(arrival);
  job.set_tier(rng_.chance(kProductionFraction) ? JobTier::kProduction
                                                : JobTier::kResearch);
  fill_tasks(job);
  build_dag(job);
  const bool ok = job.finalize(kReferenceRate);
  assert(ok && "generated DAG must be acyclic");
  (void)ok;
  assign_deadline(job);
  assign_input_locations(job);
  // Re-finalize deadline-dependent per-task deadlines now that the job
  // deadline is known (finalize computes levels; deadlines need the final
  // job deadline).
  const bool ok2 = job.finalize(kReferenceRate);
  assert(ok2);
  (void)ok2;
  return job;
}

void WorkloadGenerator::fill_tasks(Job& job) {
  for (TaskIndex j = 0; j < job.task_count(); ++j) {
    Task& t = job.task(j);
    t.size_mi = std::clamp(rng_.lognormal(kSizeMu, kSizeSigma), kSizeMinMi,
                           kSizeMaxMi);
    t.demand.cpu = std::clamp(rng_.lognormal(kCpuMu, kCpuSigma),
                              config_.cpu_min, config_.cpu_max);
    t.demand.mem = std::clamp(rng_.lognormal(kMemMu, kMemSigma),
                              config_.mem_min, config_.mem_max);
    t.demand.disk = kDiskMb;
    t.demand.bw = kBwMbps;
  }
}

void WorkloadGenerator::assign_input_locations(Job& job) {
  if (config_.locality_nodes == 0) return;
  const auto n_nodes = static_cast<std::int64_t>(config_.locality_nodes);
  for (TaskIndex root : job.graph().roots()) {
    if (!rng_.chance(config_.locality_fraction)) continue;
    Task& t = job.task(root);
    t.input_mb = rng_.lognormal(config_.input_mb_mu, kInputMbSigma);
    const int replicas =
        std::min<int>(kLocalityReplicas, static_cast<int>(n_nodes));
    while (static_cast<int>(t.input_nodes.size()) < replicas) {
      const int node = static_cast<int>(rng_.uniform_int(0, n_nodes - 1));
      if (std::find(t.input_nodes.begin(), t.input_nodes.end(), node) ==
          t.input_nodes.end())
        t.input_nodes.push_back(node);
    }
  }
}

void WorkloadGenerator::build_dag(Job& job) {
  // Assign every task a level in [1, kMaxLevels], then draw parents from
  // the immediately preceding level. This reproduces the paper's DAG
  // construction invariants (depth <= 5, direct dependents <= 15) while
  // producing the diverse shapes of Fig. 1 (wide fans, diamonds, chains).
  const std::size_t n = job.task_count();
  const int levels =
      std::min<int>(kMaxLevels, std::max<int>(1, static_cast<int>(n / 2)));

  // Level occupancy: gentle geometric decay — level 1 (the map stage) is
  // widest, but deeper levels stay well populated, matching the "median
  // DAG has a depth of five and thousands of tasks" characterization the
  // paper cites from Graphene. A flatter profile makes dependencies bind:
  // a large share of tasks must wait for upstream stages.
  std::vector<std::vector<TaskIndex>> by_level(static_cast<std::size_t>(levels));
  std::vector<double> level_weights(static_cast<std::size_t>(levels));
  for (int l = 0; l < levels; ++l)
    level_weights[static_cast<std::size_t>(l)] = std::pow(0.85, l);
  // Seed each level with one task to guarantee full depth when possible.
  TaskIndex next = 0;
  for (int l = 0; l < levels && next < n; ++l)
    by_level[static_cast<std::size_t>(l)].push_back(next++);
  for (; next < n; ++next) {
    const auto l = rng_.weighted_index(level_weights);
    by_level[l].push_back(next);
  }

  // Fan-out bookkeeping to respect the <= 15 dependents cap.
  std::vector<std::size_t> fanout(n, 0);
  for (int l = 1; l < levels; ++l) {
    const auto& prev = by_level[static_cast<std::size_t>(l - 1)];
    for (TaskIndex child : by_level[static_cast<std::size_t>(l)]) {
      // Number of parents: at least 1, geometric-ish around kMeanParents.
      std::size_t want = 1;
      while (want < 4 && rng_.chance((kMeanParents - 1.0) / 3.0)) ++want;
      std::size_t added = 0;
      // Random probes into the previous level; skip saturated parents.
      for (std::size_t attempt = 0; attempt < prev.size() * 2 && added < want;
           ++attempt) {
        const TaskIndex p =
            prev[static_cast<std::size_t>(rng_.uniform_int(
                0, static_cast<std::int64_t>(prev.size()) - 1))];
        if (fanout[p] >= kMaxFanout) continue;
        job.add_dependency(p, child);
        ++fanout[p];
        ++added;
      }
      // If every candidate parent was saturated, the task becomes a root of
      // its level — allowed (Fig. 1 shows disconnected components).
    }
  }
}

void WorkloadGenerator::assign_deadline(Job& job) {
  const SimTime cp = job.critical_path_time(kReferenceRate);
  const bool production = job.tier() == JobTier::kProduction;
  const double slack =
      production ? rng_.uniform(kProdSlackMin, kProdSlackMax)
                 : rng_.uniform(kResSlackMin, kResSlackMax);
  job.set_deadline(job.arrival() +
                   static_cast<SimTime>(static_cast<double>(cp) * slack));
}

}  // namespace dsp
