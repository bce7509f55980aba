#include "sim/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>

namespace dsp {
namespace {

std::string violation(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string violation(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// Flat gid addressing mirroring the engine's.
struct GidMap {
  std::vector<Gid> offsets;
  explicit GidMap(const JobSet& jobs) {
    offsets.resize(jobs.size());
    Gid next = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      offsets[j] = next;
      next += static_cast<Gid>(jobs[j].task_count());
    }
    total = next;
  }
  Gid gid(JobId j, TaskIndex t) const { return offsets[j] + t; }
  Gid total = 0;
};

}  // namespace

std::vector<std::string> check_run_invariants(const TimelineRecorder& recorder,
                                              const JobSet& jobs,
                                              const ClusterSpec& cluster,
                                              const InvariantOptions& options) {
  std::vector<std::string> problems;
  const GidMap gids(jobs);

  // ---- Rules 1, 2 & 4: sweep each node's intervals. --------------------
  for (std::size_t k = 0; k < cluster.size(); ++k) {
    const auto node_ivs = recorder.intervals_on_node(static_cast<int>(k));
    // Event sweep: +demand at begin, -demand at end. Ends sort before
    // begins at the same instant (a slot freed at t is reusable at t).
    struct Edge {
      SimTime t;
      int delta;  // +1 begin, -1 end
      const Interval* iv;
    };
    std::vector<Edge> edges;
    edges.reserve(node_ivs.size() * 2);
    for (const auto& iv : node_ivs) {
      edges.push_back({iv.begin, +1, &iv});
      edges.push_back({iv.end, -1, &iv});
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      if (a.t != b.t) return a.t < b.t;
      return a.delta < b.delta;  // ends first
    });
    int concurrency = 0;
    Resources in_use;
    const NodeSpec& spec = cluster.node(k);
    for (const auto& e : edges) {
      concurrency += e.delta;
      // Resolve the interval's task demand (offsets are sorted, so the
      // owning job is found by binary search).
      const Gid g = e.iv->task;
      const auto job_it =
          std::upper_bound(gids.offsets.begin(), gids.offsets.end(), g) - 1;
      const auto j = static_cast<std::size_t>(job_it - gids.offsets.begin());
      const auto t = static_cast<TaskIndex>(g - *job_it);
      const Resources& demand = jobs[j].task(t).demand;
      if (e.delta > 0) in_use += demand;
      else in_use -= demand;

      if (concurrency > spec.slots) {
        problems.push_back(violation(
            "node %zu: %d concurrent tasks exceed %d slots at t=%lld", k,
            concurrency, spec.slots, static_cast<long long>(e.t)));
        break;  // one report per node suffices
      }
      if (!spec.capacity.fits(in_use)) {
        problems.push_back(violation(
            "node %zu: resource overcommit at t=%lld (%s over %s)", k,
            static_cast<long long>(e.t), in_use.to_string().c_str(),
            spec.capacity.to_string().c_str()));
        break;
      }
    }
  }

  // ---- Per-task checks. -------------------------------------------------
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    for (TaskIndex t = 0; t < job.task_count(); ++t) {
      const Gid g = gids.gid(static_cast<JobId>(j), t);
      const SimTime finish = recorder.finish_time(g);
      if (finish == kNoTime) {
        problems.push_back(
            violation("job %zu task %u never finished", j, t));
        continue;
      }

      // Rule 4: a task's own intervals must not overlap.
      const auto ivs = recorder.intervals_for_task(g);
      for (std::size_t i = 1; i < ivs.size(); ++i) {
        if (ivs[i].begin + kInvariantTimeTol < ivs[i - 1].end) {
          problems.push_back(violation(
              "job %zu task %u occupies two slots at once (t=%lld)", j, t,
              static_cast<long long>(ivs[i].begin)));
          break;
        }
      }

      // Rule 3: dependency order against every parent's finish.
      const SimTime first_run = recorder.first_run_start(g);
      for (TaskIndex p : job.graph().parents(t)) {
        const SimTime parent_finish =
            recorder.finish_time(gids.gid(static_cast<JobId>(j), p));
        if (parent_finish == kNoTime) continue;  // reported separately
        if (first_run + kInvariantTimeTol < parent_finish) {
          problems.push_back(violation(
              "job %zu task %u ran at %lld before parent %u finished at %lld",
              j, t, static_cast<long long>(first_run), p,
              static_cast<long long>(parent_finish)));
        }
      }

      // Rule 6: productive run time ~= size / rate on the executing node.
      if (options.check_work_conservation) {
        double executed_mi = 0.0;
        for (const auto& iv : ivs)
          if (iv.kind == IntervalKind::kRun)
            executed_mi += to_seconds(iv.duration()) *
                           cluster.rate(static_cast<std::size_t>(iv.node));
        const double size = job.task(t).size_mi;
        if (std::abs(executed_mi - size) >
            std::max(1.0, size * kInvariantWorkRelTol)) {
          problems.push_back(violation(
              "job %zu task %u executed %.1f MI but its size is %.1f MI", j, t,
              executed_mi, size));
        }
      }
    }
  }

  // ---- Rule 5: job completion records. ----------------------------------
  std::map<JobId, SimTime> completion;
  for (const auto& [time, job] : recorder.job_completions())
    completion[job] = time;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto it = completion.find(static_cast<JobId>(j));
    if (it == completion.end()) {
      problems.push_back(violation("job %zu has no completion record", j));
      continue;
    }
    SimTime last_finish = 0;
    for (TaskIndex t = 0; t < jobs[j].task_count(); ++t)
      last_finish = std::max(
          last_finish, recorder.finish_time(gids.gid(static_cast<JobId>(j), t)));
    if (std::abs(it->second - last_finish) > kInvariantTimeTol)
      problems.push_back(violation(
          "job %zu completion %lld != last task finish %lld", j,
          static_cast<long long>(it->second),
          static_cast<long long>(last_finish)));
  }
  return problems;
}

}  // namespace dsp
