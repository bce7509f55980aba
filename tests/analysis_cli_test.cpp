// Black-box tests of the tools/dsp_analyze CLI: every rule's
// seeded-violation fixture must exit nonzero naming the rule, every clean
// fixture (including the shipped examples/ workloads) must exit zero, and
// the --json output must satisfy tools/json_check.
//
// Binary and fixture locations are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

/// Runs dsp_analyze with `args`, capturing stderr and, unless `stdout_to`
/// names a file to send it to instead, stdout.
CliResult run_cli(const std::string& args, const std::string& stdout_to = "") {
  CliResult result;
  const std::string command =
      std::string(DSP_ANALYZE_BIN) + " " + args + " 2>&1" +
      (stdout_to.empty() ? std::string() : " >" + stdout_to);
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) result.output += buf.data();
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string fixture(const std::string& name) {
  return std::string(DSP_FIXTURE_DIR) + "/" + name;
}

std::string example_workload(const std::string& name) {
  return std::string(DSP_EXAMPLES_DIR) + "/" + name;
}

void expect_rule_fires(const std::string& args, const std::string& rule) {
  // The rule filter isolates the seeded defect from co-firing rules.
  const CliResult r = run_cli(args + " --rules " + rule);
  EXPECT_EQ(r.exit_code, 1) << rule << ": " << r.output;
  EXPECT_NE(r.output.find(rule), std::string::npos) << r.output;
}

TEST(DspAnalyzeCliTest, SeededWorkloadViolations) {
  expect_rule_fires("workload " + fixture("w000_malformed.csv"), "W000");
  expect_rule_fires("workload " + fixture("w001_cycle.csv"), "W001");
  expect_rule_fires("workload " + fixture("w002_bad_parent.csv"), "W002");
  expect_rule_fires("workload " + fixture("w003_tight_deadline.csv"), "W003");
  expect_rule_fires("workload " + fixture("w004_oversized_demand.csv"), "W004");
  expect_rule_fires("workload " + fixture("w005_invalid_structure.csv"),
                    "W005");
}

TEST(DspAnalyzeCliTest, SeededScheduleViolations) {
  expect_rule_fires("schedule " + fixture("s000_malformed.json"), "S000");
  expect_rule_fires("schedule " + fixture("s001_dependency_order.json"),
                    "S001");
  expect_rule_fires("schedule " + fixture("s002_node_overlap.json"), "S002");
  expect_rule_fires("schedule " + fixture("s003_deadline_violation.json"),
                    "S003");
  expect_rule_fires("schedule " + fixture("s004_unplaced_task.json"), "S004");
  expect_rule_fires("schedule " + fixture("s005_makespan_understated.json"),
                    "S005");
}

TEST(DspAnalyzeCliTest, SeededAuditViolations) {
  const std::string w = " --workload " + fixture("audit_workload.csv");
  expect_rule_fires("audit " + fixture("p000_malformed.jsonl"), "P000");
  expect_rule_fires("audit " + fixture("p001_monotonicity.jsonl") + w, "P001");
  expect_rule_fires("audit " + fixture("p002_priority_gap.jsonl"), "P002");
  expect_rule_fires("audit " + fixture("p003_dependency_on_victim.jsonl") + w,
                    "P003");
  expect_rule_fires("audit " + fixture("p004_rho_normalization.jsonl"), "P004");
}

TEST(DspAnalyzeCliTest, CleanFixturesExitZero) {
  for (const std::string& args :
       {"workload " + fixture("clean_workload.csv"),
        "schedule " + fixture("clean_schedule.json"),
        "audit " + fixture("clean_audit.jsonl") + " --workload " +
            fixture("audit_workload.csv")}) {
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 0) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("clean:"), std::string::npos) << r.output;
  }
}

TEST(DspAnalyzeCliTest, ExampleWorkloadsAnalyzeClean) {
  for (const char* name : {"etl_pipeline.csv", "mapreduce_fanout.csv",
                           "ml_training_locality.csv"}) {
    const CliResult r = run_cli("workload " + example_workload(name));
    EXPECT_EQ(r.exit_code, 0) << name << "\n" << r.output;
  }
}

TEST(DspAnalyzeCliTest, JsonOutputPassesJsonCheck) {
  const std::string json = ::testing::TempDir() + "dsp_analyze_out.json";
  const CliResult r = run_cli("workload " + fixture("w001_cycle.csv") +
                              " --json " + json);
  EXPECT_EQ(r.exit_code, 1);
  const std::string check = std::string(DSP_JSON_CHECK_BIN) + " " + json +
                            " analyzer input.kind input.path diagnostics "
                            "summary.error 2>&1";
  FILE* pipe = popen(check.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) output += buf.data();
  const int status = pclose(pipe);
  EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 0) << output;
  std::remove(json.c_str());
}

TEST(DspAnalyzeCliTest, JsonToStdoutContainsTheDiagnostic) {
  const CliResult r =
      run_cli("workload " + fixture("w001_cycle.csv") + " --json -");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("\"analyzer\": \"dsp-analyze\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"rule\": \"W001\""), std::string::npos) << r.output;
}

TEST(DspAnalyzeCliTest, UsageAndBadFlagsExitTwo) {
  EXPECT_EQ(run_cli("").exit_code, 2);
  EXPECT_EQ(run_cli("workload").exit_code, 2);
  EXPECT_EQ(run_cli("frobnicate x").exit_code, 2);
  EXPECT_EQ(run_cli("workload x --rules Z999").exit_code, 2);
  EXPECT_EQ(run_cli("workload x --cluster moon:4").exit_code, 2);
  // A missing input is an analyzable parse failure, not a usage error.
  EXPECT_EQ(run_cli("workload /nonexistent.csv").exit_code, 1);
  // Numeric flag values that are fractional, non-finite, out of range or
  // wider than the event node ids are usage errors naming the flag, on a
  // workload that is otherwise clean.
  const std::string clean = "workload " + example_workload("etl_pipeline.csv");
  const std::pair<const char*, const char*> bad_values[] = {
      {"--cluster", "uniform:2.7:nan:4:2.9"},
      {"--cluster", "uniform:2:inf:4:2"},
      {"--cluster", "uniform:3:2660:4:1e12"},
      {"--cluster", "ec2:40000"},
      {"--rate", "nan"}};
  for (const auto& [flag, value] : bad_values) {
    const CliResult r = run_cli(clean + " " + flag + " " + value);
    EXPECT_EQ(r.exit_code, 2) << flag << " " << value << "\n" << r.output;
    EXPECT_NE(r.output.find(std::string(flag) + ": "), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find(value), std::string::npos) << r.output;
  }
}

TEST(DspAnalyzeCliTest, StdoutWriteFailureExitsTwo) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const std::string& args :
       {std::string("rules"),
        "workload " + example_workload("etl_pipeline.csv") + " --json -"}) {
    const CliResult r = run_cli(args, "/dev/full");
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    // The whole line: the bare program name, not a path.
    EXPECT_NE(("\n" + r.output)
                  .find("\ndsp_analyze: cannot write standard output\n"),
              std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(DspAnalyzeCliTest, RulesModeListsTheCatalog) {
  const CliResult r = run_cli("rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* id : {"W001", "W003", "S001", "S005", "P001", "P004"})
    EXPECT_NE(r.output.find(id), std::string::npos) << id;
}

}  // namespace
