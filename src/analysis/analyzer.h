// dsp-analyze front-end: file-level entry points composing the passes.
//
// Each entry point loads one input artifact, routes load failures into the
// family's *000 parse rule, runs the family's rules, and returns the
// report. tools/dsp_analyze is a thin CLI over these; tests call them
// in-process.
#pragma once

#include <string>

#include "analysis/audit_replay.h"
#include "analysis/diagnostics.h"
#include "analysis/schedule_check.h"
#include "analysis/workload_lint.h"

namespace dsp::analysis {

/// Workload lint (W rules) over a trace CSV against `cluster`.
/// `reference_rate` derives per-level task deadlines at load, exactly as
/// the simulator would. `filter` restricts the rules (empty = all).
Report analyze_workload_file(const std::string& path,
                             const ClusterSpec& cluster, double reference_rate,
                             std::vector<std::string> filter = {});

/// Schedule constraint check (S rules) over a schedule JSON.
Report analyze_schedule_file(const std::string& path,
                             std::vector<std::string> filter = {});

/// Audit replay (P rules) over the preempt_decision lines of a JSONL
/// event log; `workload_path` optionally names the trace CSV the run was
/// recorded against (enables P001/P003 and gid validation). A log that
/// read_event_log rejects is reported as P000.
Report analyze_audit_file(const std::string& path,
                          const std::string& workload_path,
                          double reference_rate,
                          std::vector<std::string> filter = {});

/// Parses a cluster spec string: "ec2:<n>", "real:<n>", or
/// "uniform:<n>:<mips>:<mem_gb>:<slots>". Returns false (with a message)
/// on malformed input.
bool parse_cluster_spec(const std::string& text, ClusterSpec& out,
                        std::string* error);

}  // namespace dsp::analysis
