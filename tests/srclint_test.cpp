// srclint scanner tests: every seeded-violation fixture under
// tests/fixtures/srclint fires exactly its own rule, the clean fixture
// fires nothing, and the repository's own src/ tree self-scans clean —
// the determinism/concurrency disciplines the D*/C* packs encode are
// enforced on the code that promises them. Plus black-box coverage of
// the dsp_tidy CLI (exit codes, --rules, --json via json_check).
#include "analysis/srclint.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/rules.h"

namespace {

using dsp::analysis::Report;

std::string fixture(const std::string& name) {
  return std::string(DSP_SRCLINT_FIXTURE_DIR) + "/" + name;
}

/// Rule IDs of every diagnostic in `report`.
std::set<std::string> fired_rules(const Report& report) {
  std::set<std::string> ids;
  for (const auto& d : report.diagnostics()) ids.insert(d.rule);
  return ids;
}

void expect_fires_exactly(const std::string& file, const std::string& rule) {
  Report report;
  std::string error;
  ASSERT_TRUE(dsp::analysis::scan_source_file(fixture(file), report, &error))
      << error;
  EXPECT_EQ(fired_rules(report), std::set<std::string>{rule})
      << file << " should fire " << rule << " and nothing else";
  EXPECT_GE(report.diagnostics().size(), 1u);
  for (const auto& d : report.diagnostics())
    EXPECT_NE(d.subject.find(".cpp:"), std::string::npos)
        << "subject should be path:line, got " << d.subject;
}

TEST(SrclintTest, SeededDeterminismViolations) {
  expect_fires_exactly("d000_libc_random.cpp", "D000");
  expect_fires_exactly("d001_std_random_device.cpp", "D001");
  expect_fires_exactly("d002_wall_clock.cpp", "D002");
  expect_fires_exactly("d003_unordered_iteration.cpp", "D003");
  expect_fires_exactly("d004_thread_outside_pool.cpp", "D004");
  expect_fires_exactly("d005_std_random_engine.cpp", "D005");
}

TEST(SrclintTest, SeededConcurrencyViolations) {
  expect_fires_exactly("c000_unguarded_global.cpp", "C000");
  expect_fires_exactly("c001_io_under_lock.cpp", "C001");
  expect_fires_exactly("c002_raw_new_delete.cpp", "C002");
  expect_fires_exactly("c003_unchecked_index.cpp", "C003");
  expect_fires_exactly("c004_console_io.cpp", "C004");
  expect_fires_exactly("c005_manual_lock.cpp", "C005");
}

TEST(SrclintTest, CleanFixtureFiresNothing) {
  Report report;
  std::string error;
  ASSERT_TRUE(
      dsp::analysis::scan_source_file(fixture("clean.cpp"), report, &error))
      << error;
  EXPECT_TRUE(report.empty()) << [&] {
    std::string all;
    for (const auto& d : report.diagnostics())
      all += d.rule + " " + d.subject + ": " + d.message + "\n";
    return all;
  }();
}

TEST(SrclintTest, RepositorySourceSelfScansClean) {
  // tools/ and bench/ are in scope too: they are sanctioned console-I/O
  // surfaces (C004 exempts them), but every other discipline — no raw
  // new/delete, no ambient randomness, RAII locking — binds there as
  // much as in the library.
  std::vector<std::string> files;
  std::string error;
  ASSERT_TRUE(dsp::analysis::collect_sources(
      {DSP_SRC_DIR, DSP_TOOLS_DIR, DSP_BENCH_DIR}, files, &error))
      << error;
  ASSERT_GT(files.size(), 50u) << "source tree looks truncated";
  Report report;
  for (const std::string& file : files)
    ASSERT_TRUE(dsp::analysis::scan_source_file(file, report, &error))
        << error;
  std::string all;
  for (const auto& d : report.diagnostics())
    all += d.rule + " " + d.subject + ": " + d.message + "\n";
  EXPECT_TRUE(report.empty()) << all;
}

TEST(SrclintTest, EveryPackRuleIsInTheCatalog) {
  for (const char* id : {"D000", "D001", "D002", "D003", "D004", "D005",
                         "C000", "C001", "C002", "C003", "C004", "C005"}) {
    const auto* info = dsp::analysis::find_rule(id);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_EQ(info->severity, dsp::analysis::Severity::kError) << id;
  }
}

TEST(SrclintTest, InlineAllowSuppressesOnlyThatLine) {
  Report report;
  dsp::analysis::scan_source("adhoc.cpp",
                             "void f(int* p) {\n"
                             "  delete p;  // dsp-tidy: allow(C002)\n"
                             "  delete p;\n"
                             "}\n",
                             report);
  ASSERT_EQ(report.diagnostics().size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].rule, "C002");
  EXPECT_EQ(report.diagnostics()[0].subject, "adhoc.cpp:3");
}

TEST(SrclintTest, CommentsStringsAndPreprocessorDoNotFire) {
  Report report;
  dsp::analysis::scan_source("adhoc.cpp",
                             "#include <cstdlib>  \n"
                             "// call rand() and printf() all day\n"
                             "/* std::cout << rand(); */\n"
                             "const char* kDoc = \"time(nullptr)\";\n",
                             report);
  EXPECT_TRUE(report.empty());
}

TEST(SrclintTest, HotScopeRulesSkipNonHotSrcPaths) {
  Report report;
  // unordered_map is allowed outside src/core and src/sim.
  dsp::analysis::scan_source(
      "src/obs/cache.cpp", "std::unordered_map<int, int> m;\n", report);
  EXPECT_TRUE(report.empty());
  dsp::analysis::scan_source(
      "src/core/cache.cpp", "std::unordered_map<int, int> m;\n", report);
  EXPECT_EQ(fired_rules(report), std::set<std::string>{"D003"});
}

TEST(SrclintTest, CollectSourcesSortsAndRejectsMissingPaths) {
  std::vector<std::string> files;
  std::string error;
  ASSERT_TRUE(dsp::analysis::collect_sources({DSP_SRCLINT_FIXTURE_DIR}, files,
                                             &error))
      << error;
  ASSERT_GE(files.size(), 13u);  // 12 seeded + clean
  for (std::size_t i = 1; i < files.size(); ++i)
    EXPECT_LT(files[i - 1], files[i]);

  std::vector<std::string> none;
  EXPECT_FALSE(dsp::analysis::collect_sources({fixture("does_not_exist")},
                                              none, &error));
  EXPECT_NE(error.find("does_not_exist"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Black-box CLI tests
// ---------------------------------------------------------------------------

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult run_cmd(const std::string& command) {
  CliResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr)
    result.output += buf.data();
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CliResult run_tidy(const std::string& args) {
  return run_cmd(std::string(DSP_TIDY_BIN) + " " + args);
}

TEST(DspTidyCliTest, FixtureDirectoryExitsOneNamingEveryRule) {
  const CliResult r = run_tidy(std::string(DSP_SRCLINT_FIXTURE_DIR));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* id : {"D000", "D001", "D002", "D003", "D004", "D005",
                         "C000", "C001", "C002", "C003", "C004", "C005"})
    EXPECT_NE(r.output.find(id), std::string::npos) << id << "\n" << r.output;
}

TEST(DspTidyCliTest, RuleFilterIsolatesOneRule) {
  const CliResult r =
      run_tidy(std::string(DSP_SRCLINT_FIXTURE_DIR) + " --rules D003");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("D003"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("C004"), std::string::npos) << r.output;
}

TEST(DspTidyCliTest, SelfScanOfSrcIsCleanAndJsonValidates) {
  const std::string json = ::testing::TempDir() + "dsp_tidy_out.json";
  const CliResult r =
      run_tidy(std::string(DSP_SRC_DIR) + " --json " + json);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const CliResult check = run_cmd(std::string(DSP_JSON_CHECK_BIN) + " " + json);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  std::remove(json.c_str());
}

TEST(DspTidyCliTest, UsageAndIoErrorsExitTwo) {
  EXPECT_EQ(run_tidy("").exit_code, 2);
  EXPECT_EQ(run_tidy("no/such/path.cpp").exit_code, 2);
  EXPECT_EQ(run_tidy("--rules D000").exit_code, 2);  // no paths
  EXPECT_EQ(
      run_tidy(std::string(DSP_SRCLINT_FIXTURE_DIR) + " --rules Z999").exit_code,
      2);
}

TEST(DspTidyCliTest, StdoutWriteFailureExitsTwo) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // The group sends only the tool's stdout to the full device; its
  // stderr still reaches the pipe.
  for (const std::string& args :
       {std::string("rules"), std::string(DSP_SRCLINT_FIXTURE_DIR)}) {
    const CliResult r = run_cmd("{ " + std::string(DSP_TIDY_BIN) + " " +
                                args + " >/dev/full; }");
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    // The whole line: the bare program name, not a path.
    EXPECT_NE(("\n" + r.output)
                  .find("\ndsp_tidy: cannot write standard output\n"),
              std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(DspTidyCliTest, RulesListingShowsOnlySourcePacks) {
  const CliResult r = run_tidy("rules");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("D000"), std::string::npos);
  EXPECT_NE(r.output.find("C005"), std::string::npos);
  EXPECT_EQ(r.output.find("W001"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("S001"), std::string::npos) << r.output;
}

}  // namespace
