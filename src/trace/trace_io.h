// Trace file I/O: serialize workloads to CSV and load them back.
//
// Format (one row per task, header row required):
//   job_id,task_index,size_mi,cpu,mem,disk,bw,arrival_us,deadline_us,
//   size_class,tier,parents[,input_mb,input_nodes]
// where `parents` is a ';'-separated list of task indices within the same
// job (empty for root tasks), and the optional trailing pair carries the
// data-locality extension: input dataset size in MB plus a ';'-separated
// list of the cluster nodes holding replicas. Rows of one job must be
// contiguous and carry identical job-level fields. Lines starting with
// '#' are comments.
//
// This is the hook for replaying *real* cluster traces (e.g. a Google-trace
// extraction) through the simulator in place of the synthetic generator.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "dag/job.h"

namespace dsp {

/// Writes a workload as CSV. Jobs need not be finalized.
void write_trace_csv(std::ostream& out, const JobSet& jobs);

/// Convenience overload writing to a file path; returns false on I/O error.
bool write_trace_csv(const std::string& path, const JobSet& jobs);

/// Result of parsing a trace.
struct TraceParseResult {
  JobSet jobs;
  std::vector<std::string> errors;  ///< Parse/validation problems; empty = ok.

  bool ok() const { return errors.empty(); }
};

/// Reads a workload from CSV and finalizes every job at `reference_rate`
/// MIPS (used to derive per-level task deadlines). A rate that is not
/// finite and > 0 yields one error naming it and no jobs.
TraceParseResult read_trace_csv(std::istream& in, double reference_rate);

/// Convenience overload reading from a file path.
TraceParseResult read_trace_csv(const std::string& path, double reference_rate);

}  // namespace dsp
