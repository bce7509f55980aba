#include "analysis/analyzer.h"

#include <cstdlib>
#include <vector>

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
  auto as_number = [](const std::string& s, double& v) {
    char* end = nullptr;
    v = std::strtod(s.c_str(), &end);
    return end && *end == '\0' && end != s.c_str();
  };
  double n = 0;
  if (parts.size() < 2 || !as_number(parts[1], n) || n < 1 || n > 1e6)
    return fail("malformed cluster spec \"" + text + "\"");
  const auto count = static_cast<std::size_t>(n);
  if (parts[0] == "ec2" && parts.size() == 2) {
    out = ClusterSpec::ec2(count);
    return true;
  }
  if (parts[0] == "real" && parts.size() == 2) {
    out = ClusterSpec::real_cluster(count);
    return true;
  }
  if (parts[0] == "uniform" && parts.size() == 5) {
    double mips = 0, mem = 0, slots = 0;
    if (!as_number(parts[2], mips) || mips <= 0 ||
        !as_number(parts[3], mem) || mem <= 0 ||
        !as_number(parts[4], slots) || slots < 1)
      return fail("malformed uniform cluster spec \"" + text + "\"");
    out = ClusterSpec::uniform(count, mips, mem, static_cast<int>(slots));
    return true;
  }
  return fail("unknown cluster profile \"" + parts[0] + "\"");
}

}  // namespace dsp::analysis
