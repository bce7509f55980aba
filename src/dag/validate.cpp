#include "dag/validate.h"

#include <cstdarg>
#include <cstdio>

namespace dsp {
namespace {

std::string problem(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string problem(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

std::vector<std::string> validate_job(const Job& job, const DagLimits& limits) {
  std::vector<std::string> problems;
  if (!job.finalized()) {
    problems.push_back("job not finalized (or dependency graph is cyclic)");
    return problems;
  }
  if (job.task_count() == 0) problems.push_back("job has no tasks");
  if (job.deadline() != kMaxTime && job.deadline() <= job.arrival())
    problems.push_back(problem("deadline %lld <= arrival %lld",
                               static_cast<long long>(job.deadline()),
                               static_cast<long long>(job.arrival())));

  const TaskGraph& g = job.graph();
  for (TaskIndex t = 0; t < job.task_count(); ++t) {
    const Task& task = job.task(t);
    if (task.size_mi <= 0.0)
      problems.push_back(problem("task %u has non-positive size %.3f", t, task.size_mi));
    if (task.demand.cpu < 0 || task.demand.mem < 0 || task.demand.disk < 0 ||
        task.demand.bw < 0)
      problems.push_back(problem("task %u has negative resource demand", t));
    if (limits.max_fanout && g.children(t).size() > limits.max_fanout)
      problems.push_back(problem("task %u has fan-out %zu > limit %zu", t,
                                 g.children(t).size(), limits.max_fanout));
    // Children must not have earlier deadlines than parents: the per-level
    // rule guarantees this when levels are consistent.
    for (TaskIndex c : g.children(t)) {
      if (job.task(c).deadline < task.deadline)
        problems.push_back(
            problem("task %u deadline precedes its parent %u's deadline", c, t));
    }
  }
  if (limits.max_depth && g.depth() > limits.max_depth)
    problems.push_back(
        problem("DAG depth %d > limit %d", g.depth(), limits.max_depth));
  return problems;
}

}  // namespace dsp
