// dsp_tidy: source-level determinism & concurrency lint for the repo's
// own C++ (src/analysis/srclint).
//
//   dsp_tidy <path...> [--json <path|->] [--rules <ids>]
//   dsp_tidy rules | --list-rules
//
// Paths may be files or directories (directories recurse over
// .h/.hh/.hpp/.cc/.cpp/.cxx). Rule packs: D* determinism and C*
// concurrency/robustness line rules — see `dsp_tidy --list-rules` or
// rules.h. Findings are printed compiler-style
// ("D001 std-random-device error src/x.cpp:12: ..."); --json writes the
// same machine-readable document dsp_analyze emits
// (json_check-compatible).
//
// Exit codes: 0 = no error-severity findings, 1 = at least one error
// finding, 2 = usage or I/O problem.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/rules.h"
#include "analysis/srclint.h"
#include "util/log.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <path...> [--json <path|->] [--rules <ids>]\n"
               "       %s rules | --list-rules\n",
               argv0, argv0);
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

bool is_source_rule(const char* id) { return id[0] == 'D' || id[0] == 'C'; }

int list_rules() {
  std::printf("%-6s %-38s %-8s %s\n", "ID", "NAME", "SEVERITY", "PAPER");
  for (const auto& rule : dsp::analysis::rule_catalog()) {
    if (!is_source_rule(rule.id)) continue;
    std::printf("%-6s %-38s %-8s %s\n", rule.id, rule.name,
                dsp::analysis::to_string(rule.severity), rule.paper_ref);
    std::printf("       %s\n", rule.summary);
  }
  return dsp::flush_stdout("dsp_tidy") ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  if (std::strcmp(argv[1], "rules") == 0 ||
      std::strcmp(argv[1], "--list-rules") == 0)
    return list_rules();

  std::vector<std::string> paths;
  std::string json_path;
  std::vector<std::string> filter;
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--json") == 0) {
      const char* v = need_value("--json");
      if (!v) return 2;
      json_path = v;
    } else if (std::strcmp(argv[i], "--rules") == 0) {
      const char* v = need_value("--rules");
      if (!v) return 2;
      filter = split_rules(v);
    } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], argv[i]);
      return usage(argv[0]);
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.empty()) return usage(argv[0]);
  for (const std::string& id : filter) {
    if (!dsp::analysis::find_rule(id)) {
      std::fprintf(stderr, "%s: unknown rule id %s (see `%s rules`)\n",
                   argv[0], id.c_str(), argv[0]);
      return 2;
    }
  }

  std::string error;
  std::vector<std::string> files;
  if (!dsp::analysis::collect_sources(paths, files, &error)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    return 2;
  }

  dsp::analysis::Report report;
  report.set_rule_filter(filter);
  for (const std::string& file : files) {
    if (!dsp::analysis::scan_source_file(file, report, &error)) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
      return 2;
    }
  }

  const std::string input =
      paths.size() == 1 ? paths.front()
                        : paths.front() + " (+" +
                              std::to_string(paths.size() - 1) + " more)";
  if (json_path.empty()) {
    report.print_text(std::cout);
  } else if (json_path == "-") {
    report.write_json(std::cout, "source", input);
  } else {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                   json_path.c_str());
      return 2;
    }
    report.write_json(out, "source", input);
    out.close();  // flushes: a full disk shows up only here
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                   json_path.c_str());
      return 2;
    }
    report.print_text(std::cout);  // keep the human-readable summary
  }
  if (!dsp::flush_stdout("dsp_tidy")) return 2;
  return report.has_errors() ? 1 : 0;
}
