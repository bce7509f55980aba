// Structural validation of jobs and DAGs.
//
// The workload generator and the CSV trace reader both funnel jobs through
// validate_job() so malformed inputs fail loudly before reaching the
// simulator.
#pragma once

#include <string>
#include <vector>

#include "dag/job.h"

namespace dsp {

/// Constraints the paper imposes on generated DAGs (§V): depth at most 5
/// levels, at most 15 direct dependents per task. Zero disables a check.
struct DagLimits {
  int max_depth = 0;
  std::size_t max_fanout = 0;
};

/// Validates a finalized job; returns a list of human-readable problems
/// (empty = valid). Checks: finalized acyclic graph, positive task sizes,
/// non-negative demands, deadline after arrival, monotone per-level task
/// deadlines, and the optional DAG shape limits.
std::vector<std::string> validate_job(const Job& job, const DagLimits& limits = {});

}  // namespace dsp
