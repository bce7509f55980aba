#include "analysis/workload_lint.h"

#include <cstdio>

#include "trace/trace_io.h"
#include "util/time.h"

namespace dsp::analysis {
namespace {

std::string job_subject(const Job& job) {
  return "job " + std::to_string(job.id());
}

void check_deadline_feasibility(const Job& job, const ClusterSpec& cluster,
                                Report& report) {
  if (job.deadline() == kMaxTime || !job.finalized()) return;
  const double rate = cluster.max_rate();
  if (rate <= 0.0) return;
  const SimTime cp = job.critical_path_time(rate);
  const SimTime earliest = job.arrival() + cp;
  if (earliest > job.deadline()) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "critical path needs %s on the fastest node (%.0f MIPS), but "
                  "only %s remain between arrival and deadline",
                  format_time(cp).c_str(), rate,
                  format_time(job.deadline() - job.arrival()).c_str());
    report.add("W003", job_subject(job), buf);
  }
}

void check_demand_satisfiable(const Job& job, const ClusterSpec& cluster,
                              Report& report) {
  for (TaskIndex t = 0; t < job.task_count(); ++t) {
    const Resources& demand = job.task(t).demand;
    if (!cluster.fits_some_node(demand)) {
      report.add("W004", job_subject(job) + " task " + std::to_string(t),
                 "demand " + demand.to_string() + " exceeds every node's "
                 "capacity (" + std::to_string(cluster.size()) + " nodes)");
    }
  }
}

}  // namespace

void lint_workload(const JobSet& jobs, const WorkloadLintOptions& options,
                   Report& report) {
  for (const Job& job : jobs) {
    for (const std::string& problem : validate_job(job, options.limits))
      report.add("W005", job_subject(job), problem);
    if (options.cluster != nullptr) {
      check_deadline_feasibility(job, *options.cluster, report);
      check_demand_satisfiable(job, *options.cluster, report);
    }
  }
}

JobSet load_workload_for_analysis(const std::string& path,
                                  double reference_rate, Report& report) {
  TraceParseResult parsed = read_trace_csv(path, reference_rate);
  for (const std::string& error : parsed.errors) {
    // The trace loader reports problems as strings; route the two
    // analyzability failures to their own rules (the messages are owned by
    // trace_io.cpp and covered by trace_test).
    if (error.find("cyclic") != std::string::npos) {
      report.add("W001", path, error);
    } else if (error.find("bad parent") != std::string::npos ||
               error.find("out of range") != std::string::npos) {
      report.add("W002", path, error);
    } else {
      report.add("W000", path, error);
    }
  }
  return std::move(parsed.jobs);
}

}  // namespace dsp::analysis
