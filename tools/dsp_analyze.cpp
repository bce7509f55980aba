// dsp_analyze: static rule engine CLI for workloads, schedules, and the
// preemption decisions of recorded runs (src/analysis).
//
//   dsp_analyze workload <trace.csv> [--cluster <spec>] [--rate <mips>]
//   dsp_analyze schedule <schedule.json>
//   dsp_analyze audit <events.jsonl> [--workload <trace.csv>] [--rate <mips>]
//     replays the preempt_decision lines of a flight-recorder log
//     (DSP_EVENT_LOG, dsp_sweep --event-log-dir)
//   dsp_analyze rules | --list-rules
// Common flags:
//   --json <path|->   machine-readable diagnostics (json_check-compatible)
//   --rules <ids>     comma-separated rule filter, e.g. W001,W003
//   --cluster <spec>  ec2:<n> | real:<n> | uniform:<n>:<mips>:<mem_gb>:<slots>
//                     (default ec2:30, the paper's EC2 testbed)
//   --rate <mips>     rate that derives per-level task deadlines (default
//                     the workload recipe's kReferenceRate, 2660)
//
// Exit codes: 0 = no error-severity findings, 1 = at least one error
// finding, 2 = usage or I/O problem.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/rules.h"
#include "trace/workload.h"
#include "util/log.h"
#include "util/parse.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s workload <trace.csv> [--cluster <spec>] [--rate "
               "<mips>] [--json <path|->] [--rules <ids>]\n"
               "       %s schedule <schedule.json> [--json ...] [--rules ...]\n"
               "       %s audit <events.jsonl> [--workload <trace.csv>] [--rate "
               "<mips>] [--json ...] [--rules ...]\n"
               "       %s rules | --list-rules\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

std::vector<std::string> split_rules(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string token = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!token.empty()) out.push_back(token);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int list_rules() {
  std::printf("%-6s %-38s %-8s %s\n", "ID", "NAME", "SEVERITY", "PAPER");
  for (const auto& rule : dsp::analysis::rule_catalog()) {
    std::printf("%-6s %-38s %-8s %s\n", rule.id, rule.name,
                dsp::analysis::to_string(rule.severity), rule.paper_ref);
    std::printf("       %s\n", rule.summary);
  }
  return dsp::flush_stdout("dsp_analyze") ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string mode = argv[1];
  if (mode == "rules" || mode == "--list-rules") return list_rules();
  if (argc < 3) return usage(argv[0]);
  if (mode != "workload" && mode != "schedule" && mode != "audit")
    return usage(argv[0]);
  const std::string input = argv[2];

  std::string cluster_spec = "ec2:30";
  std::string workload_path;
  std::string json_path;
  std::vector<std::string> filter;
  double reference_rate = dsp::kReferenceRate;
  for (int i = 3; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--cluster") == 0) {
      const char* v = need_value("--cluster");
      if (!v) return 2;
      cluster_spec = v;
    } else if (std::strcmp(argv[i], "--workload") == 0) {
      const char* v = need_value("--workload");
      if (!v) return 2;
      workload_path = v;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      const char* v = need_value("--json");
      if (!v) return 2;
      json_path = v;
    } else if (std::strcmp(argv[i], "--rules") == 0) {
      const char* v = need_value("--rules");
      if (!v) return 2;
      filter = split_rules(v);
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      const char* v = need_value("--rate");
      if (!v) return 2;
      if (!dsp::parse_positive(v, reference_rate)) {
        std::fprintf(stderr,
                     "%s: --rate: \"%s\" is not a finite positive MIPS "
                     "value\n",
                     argv[0], v);
        return 2;
      }
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], argv[i]);
      return usage(argv[0]);
    }
  }
  for (const std::string& id : filter) {
    if (!dsp::analysis::find_rule(id)) {
      std::fprintf(stderr, "%s: unknown rule id %s (see `%s rules`)\n",
                   argv[0], id.c_str(), argv[0]);
      return 2;
    }
  }

  dsp::analysis::Report report;
  if (mode == "workload") {
    dsp::ClusterSpec cluster;
    std::string error;
    if (!dsp::analysis::parse_cluster_spec(cluster_spec, cluster, &error)) {
      std::fprintf(stderr, "%s: --cluster: %s\n", argv[0], error.c_str());
      return 2;
    }
    report = dsp::analysis::analyze_workload_file(input, cluster,
                                                  reference_rate, filter);
  } else if (mode == "schedule") {
    report = dsp::analysis::analyze_schedule_file(input, filter);
  } else {
    report = dsp::analysis::analyze_audit_file(input, workload_path,
                                               reference_rate, filter);
  }

  if (json_path.empty()) {
    report.print_text(std::cout);
  } else if (json_path == "-") {
    report.write_json(std::cout, mode, input);
  } else {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                   json_path.c_str());
      return 2;
    }
    report.write_json(out, mode, input);
    out.close();  // flushes: a full disk shows up only here
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                   json_path.c_str());
      return 2;
    }
    report.print_text(std::cout);  // keep the human-readable summary
  }
  if (!dsp::flush_stdout("dsp_analyze")) return 2;
  return report.has_errors() ? 1 : 0;
}
