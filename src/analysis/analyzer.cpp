#include "analysis/analyzer.h"

#include <climits>
#include <stdexcept>
#include <vector>

#include "util/parse.h"

namespace dsp::analysis {

Report analyze_workload_file(const std::string& path,
                             const ClusterSpec& cluster, double reference_rate,
                             std::vector<std::string> filter) {
  Report report;
  report.set_rule_filter(std::move(filter));
  const JobSet jobs = load_workload_for_analysis(path, reference_rate, report);
  WorkloadLintOptions options;
  options.cluster = &cluster;
  lint_workload(jobs, options, report);
  return report;
}

Report analyze_schedule_file(const std::string& path,
                             std::vector<std::string> filter) {
  Report report;
  report.set_rule_filter(std::move(filter));
  ScheduleDoc doc;
  std::string error;
  if (!read_schedule_json(path, doc, &error)) {
    report.add("S000", path, error);
    return report;
  }
  check_schedule(doc, {}, report);
  return report;
}

Report analyze_audit_file(const std::string& path,
                          const std::string& workload_path,
                          double reference_rate,
                          std::vector<std::string> filter) {
  Report report;
  report.set_rule_filter(std::move(filter));
  const obs::EventParseResult parsed = obs::read_event_log(path);
  if (!parsed.ok()) {
    report.add("P000", path, parsed.error);
    return report;
  }
  std::vector<obs::PreemptDecision> decisions;
  for (const obs::Event& e : parsed.events)
    if (e.kind == obs::EventKind::kPreemptDecision)
      decisions.push_back(obs::decision_of(e));
  JobSet jobs;
  AuditReplayOptions options;
  if (!workload_path.empty()) {
    jobs = load_workload_for_analysis(workload_path, reference_rate, report);
    options.workload = &jobs;
  }
  replay_audit(decisions, options, report);
  return report;
}

bool parse_cluster_spec(const std::string& text, ClusterSpec& out,
                        std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error)
      *error = message + " (expected ec2:<n>, real:<n>, or "
                         "uniform:<n>:<mips>:<mem_gb>:<slots>)";
    return false;
  };

  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t colon = text.find(':', pos);
    parts.push_back(text.substr(
        pos, colon == std::string::npos ? std::string::npos : colon - pos));
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  const std::string& profile = parts[0];
  if (profile != "ec2" && profile != "real" && profile != "uniform")
    return fail("unknown cluster profile \"" + profile + "\"");
  if (parts.size() != (profile == "uniform" ? 5u : 2u))
    return fail("malformed cluster spec \"" + text + "\"");
  unsigned long long nodes = 0, slots = 0;
  double mips = 0, mem = 0;
  if (!parse_count(parts[1], nodes) || nodes < 1 ||
      nodes > ClusterSpec::kMaxNodes)
    return fail("cluster spec \"" + text + "\": the node count must be an "
                "integer from 1 to " + std::to_string(ClusterSpec::kMaxNodes));
  if (profile == "uniform" &&
      (!parse_positive(parts[2], mips) || !parse_positive(parts[3], mem) ||
       !parse_count(parts[4], slots) || slots < 1 || slots > INT_MAX))
    return fail("cluster spec \"" + text + "\": mips and mem_gb must be "
                "finite positive numbers, slots an integer from 1 to " +
                std::to_string(INT_MAX));
  try {
    if (profile == "ec2")
      out = ClusterSpec::ec2(nodes);
    else if (profile == "real")
      out = ClusterSpec::real_cluster(nodes);
    else
      out = ClusterSpec::uniform(nodes, mips, mem, static_cast<int>(slots));
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
  return true;
}

}  // namespace dsp::analysis
