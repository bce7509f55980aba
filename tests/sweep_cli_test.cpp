// Black-box tests of the tools/dsp_sweep CLI and of the other front ends
// that take the same tokens and numbers: the bench environment
// (fig8_scalability) and the trace_replay and analytics_pipeline
// examples.
//
// The installed binary is driven over small grids: bad flags, tokens and
// DSP_THREADS values must fail naming them, the --json report must parse
// with the documented schema and fail the run when it cannot be written,
// and — the grid runner's determinism contract — the report must be
// byte-identical across --threads settings and across axis order on the
// command line. A figure bench is a grid too: its output must not depend
// on DSP_THREADS, and its cells must equal dsp_sweep's. Binary locations
// are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace dsp {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

/// Runs `bin args`, capturing stderr and, unless `stdout_to` names a
/// file to send it to instead, stdout.
CliResult run_cli(const std::string& bin, const std::string& args,
                  const std::string& stdout_to = "") {
  CliResult result;
  const std::string command =
      bin + " " + args + " 2>&1" +
      (stdout_to.empty() ? std::string() : " >" + stdout_to);
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr)
    result.output += buf.data();
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CliResult sweep(const std::string& args) {
  return run_cli(DSP_SWEEP_BIN, args);
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Small and fast: one cluster, two policies, two seeds = 4 scenarios.
const char* kSmallGrid =
    "--cluster ec2 --sched dsp --policy srpt,none --jobs 8,12 --seeds 42 "
    "--scale 0.02";

// fig8's first x-point (500 jobs on both testbeds) at a small task scale.
const std::string kFig8Small =
    std::string("DSP_POINTS=1 DSP_SCALE=0.02 ") + DSP_FIG8_BIN;

// DSP_THREADS values that once ran with a substituted worker count:
// clamped or defaulted to 1 with a warning (0, four, -1), silently
// accepted with a leading blank, or wrapped to 0 by a 32-bit cast.
const char* const kBadThreads[] = {"0", "four", "-1", " 4", "4294967296"};

TEST(SweepCliTest, UnknownFlagFailsWithUsage) {
  const CliResult r = sweep("--frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(SweepCliTest, UnknownAxisTokenFails) {
  EXPECT_EQ(sweep("--policy srpt,fcfs").exit_code, 2);
  EXPECT_EQ(sweep("--sched fifo").exit_code, 2);
  EXPECT_EQ(sweep("--cluster palmetto").exit_code, 2);
}

TEST(SweepCliTest, EmptyAxisFails) {
  const CliResult r = sweep("--policy ,");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("at least one value"), std::string::npos);
}

TEST(SweepCliTest, MalformedNumericArgumentFailsNamingFlagAndToken) {
  // Each case once crashed (a wrapped thread or job count) or ran with a
  // silently substituted value.
  const struct {
    const char* flag;
    const char* token;
  } cases[] = {
      {"--threads", "-1"},  {"--threads", "abc"}, {"--threads", "2x"},
      {"--jobs", "-5"},     {"--jobs", "abc"},    {"--jobs", "0"},
      {"--seeds", "abc"},   {"--seeds", "-1"},    {"--scale", "-1"},
      {"--scale", "abc"},   {"--scale", "0"},     {"--scale", "inf"},
  };
  for (const auto& c : cases) {
    const std::string arg = std::string(c.flag) + " " + c.token;
    const CliResult r = sweep(std::string(kSmallGrid) + " " + arg);
    EXPECT_EQ(r.exit_code, 2) << arg << "\n" << r.output;
    EXPECT_NE(r.output.find(c.flag), std::string::npos) << arg;
    EXPECT_NE(r.output.find(std::string("'") + c.token + "'"),
              std::string::npos)
        << arg << "\n" << r.output;
  }
}

TEST(SweepCliTest, InvalidThreadsEnvFailsNamingIt) {
  // With no --threads, dsp_sweep reads DSP_THREADS itself, as strictly as
  // its flags.
  for (const char* value : kBadThreads) {
    const CliResult r = run_cli(std::string("DSP_THREADS='") + value + "' " +
                                    DSP_SWEEP_BIN,
                                kSmallGrid);
    EXPECT_EQ(r.exit_code, 2) << value << "\n" << r.output;
    EXPECT_NE(r.output.find("DSP_THREADS"), std::string::npos) << value;
    EXPECT_NE(r.output.find(std::string("\"") + value + "\""),
              std::string::npos)
        << value << "\n" << r.output;
    EXPECT_EQ(r.output.find("makespan_s"), std::string::npos)
        << value << ": a run started\n" << r.output;
  }
  const CliResult ok =
      run_cli(std::string("DSP_THREADS=2 ") + DSP_SWEEP_BIN, kSmallGrid);
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

TEST(SweepCliTest, UnwritableReportFailsTheRun) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const CliResult r =
      sweep(std::string(kSmallGrid) + " --threads 1 --json /dev/full");
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("/dev/full"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("written to"), std::string::npos) << r.output;
}

TEST(SweepCliTest, StdoutWriteFailureFailsTheRun) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const CliResult r =
      run_cli(DSP_SWEEP_BIN, std::string(kSmallGrid) + " --threads 1",
              "/dev/full");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The whole line: the bare program name, not a path.
  EXPECT_NE(("\n" + r.output)
                .find("\ndsp_sweep: cannot write standard output\n"),
            std::string::npos)
      << r.output;
}

TEST(SweepCliTest, UnwritableEventLogDirFailsTheRun) {
  // Every cell's sink fails to open: each path is named and nothing is
  // reported, instead of the cells running without a recorder.
  const std::string dir = tmp_path("no_such_dir") + "/x";
  const CliResult r =
      sweep(std::string(kSmallGrid) + " --threads 2 --event-log-dir " + dir);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* cell :
       {"ec2-dsp-none-j8-s42", "ec2-dsp-none-j12-s42", "ec2-dsp-srpt-j8-s42",
        "ec2-dsp-srpt-j12-s42"})
    EXPECT_NE(r.output.find("dsp_sweep: cannot write event log " + dir + "/" +
                            cell + ".jsonl"),
              std::string::npos)
        << cell << "\n" << r.output;
  EXPECT_EQ(r.output.find("makespan_s"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("without a recorder"), std::string::npos)
      << r.output;
}

TEST(SweepCliTest, TableListsEveryScenario) {
  const CliResult r = sweep(std::string(kSmallGrid) + " --threads 1");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  for (const char* name : {"ec2-dsp-srpt-j8-s42", "ec2-dsp-srpt-j12-s42",
                           "ec2-dsp-none-j8-s42", "ec2-dsp-none-j12-s42"})
    EXPECT_NE(r.output.find(name), std::string::npos) << name;
}

TEST(SweepCliTest, JsonReportHasDocumentedSchema) {
  const std::string path = tmp_path("sweep_schema.json");
  const CliResult r =
      sweep(std::string(kSmallGrid) + " --threads 1 --json " + path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"scenarios\":4"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  // Wall clock must be zeroed, or the byte-identical contract is void.
  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1))
      ++n;
    return n;
  };
  EXPECT_GT(count("\"sim_wall_s\""), 0u);
  EXPECT_EQ(count("\"sim_wall_s\""), count("\"sim_wall_s\":0"));
}

TEST(SweepCliTest, ReportIsByteIdenticalAcrossThreadCounts) {
  const std::string t1 = tmp_path("sweep_t1.json");
  const std::string t4 = tmp_path("sweep_t4.json");
  ASSERT_EQ(sweep(std::string(kSmallGrid) + " --threads 1 --json " + t1)
                .exit_code,
            0);
  ASSERT_EQ(sweep(std::string(kSmallGrid) + " --threads 4 --json " + t4)
                .exit_code,
            0);
  const std::string a = slurp(t1);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(t4));
}

TEST(SweepCliTest, ReportIsByteIdenticalAcrossAxisOrder) {
  const std::string fwd = tmp_path("sweep_fwd.json");
  const std::string rev = tmp_path("sweep_rev.json");
  ASSERT_EQ(sweep("--cluster ec2 --sched dsp --policy srpt,none "
                  "--jobs 8,12 --seeds 42 --scale 0.02 --threads 2 --json " +
                  fwd)
                .exit_code,
            0);
  ASSERT_EQ(sweep("--cluster ec2 --sched dsp --policy none,srpt "
                  "--jobs 12,8 --seeds 42 --scale 0.02 --threads 2 --json " +
                  rev)
                .exit_code,
            0);
  const std::string a = slurp(fwd);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(rev));
}

// ---------------------------------------------------------------------
// Other front ends
// ---------------------------------------------------------------------

TEST(BenchEnvCliTest, InvalidSettingExitsBeforeAnyRunNamingIt) {
  // Each case once ran silently: with a substituted value (abc), tiny
  // jobs (-1), empty tables (DSP_POINTS=0), a wrapped point count, or a
  // substituted or wrapped worker count (kBadThreads).
  struct Case {
    const char* name;
    const char* value;
  };
  std::vector<Case> cases{
      {"DSP_SCALE", "abc"}, {"DSP_SCALE", "-1"},  {"DSP_SCALE", "0"},
      {"DSP_SCALE", "inf"}, {"DSP_SCALE", "nan"}, {"DSP_POINTS", "0"},
      {"DSP_POINTS", "-1"}, {"DSP_POINTS", "6"},  {"DSP_POINTS", "2x"},
      {"DSP_SEED", "abc"},  {"DSP_SEED", "-1"},   {"DSP_SEED", "1.5"},
  };
  for (const char* value : kBadThreads) cases.push_back({"DSP_THREADS", value});
  for (const auto& c : cases) {
    const std::string assignment = std::string(c.name) + "='" + c.value + "'";
    // The small scale keeps a run short should validation ever let one
    // start; a DSP_SCALE case overrides it.
    const CliResult r =
        run_cli("DSP_SCALE=0.01 " + assignment + " " + DSP_FIG8_BIN, "");
    EXPECT_EQ(r.exit_code, 2) << assignment << "\n" << r.output;
    EXPECT_NE(r.output.find(c.name), std::string::npos) << assignment;
    EXPECT_NE(r.output.find(std::string("\"") + c.value + "\""),
              std::string::npos)
        << assignment << "\n" << r.output;
    EXPECT_EQ(r.output.find("Figure 8"), std::string::npos)
        << assignment << ": a run started\n" << r.output;
  }
}

TEST(BenchEnvCliTest, UnwritableReportFailsTheRun) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const CliResult r = run_cli(kFig8Small, "--json /dev/full");
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("/dev/full"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("written to"), std::string::npos) << r.output;
}

TEST(BenchEnvCliTest, StdoutWriteFailureFailsTheRun) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const CliResult r = run_cli(kFig8Small, "", "/dev/full");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The whole line: the bare program name, not a path.
  EXPECT_NE(("\n" + r.output)
                .find("\nfig8_scalability: cannot write standard output\n"),
            std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------
// Figures as grids
// ---------------------------------------------------------------------

TEST(FigureGridTest, StdoutIsByteIdenticalAcrossThreadCounts) {
  const CliResult t1 = run_cli("DSP_THREADS=1 " + kFig8Small, "");
  const CliResult t4 = run_cli("DSP_THREADS=4 " + kFig8Small, "");
  ASSERT_EQ(t1.exit_code, 0) << t1.output;
  ASSERT_EQ(t4.exit_code, 0) << t4.output;
  ASSERT_NE(t1.output.find("Fig 8(b)"), std::string::npos) << t1.output;
  EXPECT_EQ(t1.output, t4.output);
}

/// Deep equality of two parsed JSON values, ignoring object members named
/// `skip` at any depth.
bool same_json(const obs::json::Value& a, const obs::json::Value& b,
               std::string_view skip) {
  using Kind = obs::json::Value::Kind;
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return a.boolean == b.boolean;
    case Kind::kNumber:
      return a.number == b.number;
    case Kind::kString:
      return a.string == b.string;
    case Kind::kArray:
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i)
        if (!same_json(a.array[i], b.array[i], skip)) return false;
      return true;
    case Kind::kObject: {
      std::size_t compared = 0;
      for (const auto& [key, value] : a.object) {
        if (key == skip) continue;
        const obs::json::Value* other = b.find(key);
        if (other == nullptr || !same_json(value, *other, skip)) return false;
        ++compared;
      }
      std::size_t b_members = 0;
      for (const auto& member : b.object) b_members += member.first != skip;
      return compared == b_members;
    }
  }
  return false;
}

TEST(FigureGridTest, Fig8CellsEqualTheSweepCells) {
  // Every fig5-fig8 cell is a dsp_sweep cell, which is how a figure cell's
  // event stream gets recorded (--event-log-dir).
  const std::string fig8_path = tmp_path("fig8_cells.json");
  const std::string sweep_path = tmp_path("fig8_sweep.json");
  ASSERT_EQ(run_cli(kFig8Small, "--json " + fig8_path).exit_code, 0);
  ASSERT_EQ(sweep("--cluster real,ec2 --sched dsp --policy dsp --jobs 500 "
                  "--scale 0.02 --json " +
                  sweep_path)
                .exit_code,
            0);
  obs::json::Value fig8, swept;
  ASSERT_TRUE(obs::json::parse(slurp(fig8_path), fig8));
  ASSERT_TRUE(obs::json::parse(slurp(sweep_path), swept));

  const obs::json::Value* series = fig8.find("series");
  ASSERT_TRUE(series != nullptr && series->array.size() == 1);
  const obs::json::Value* cells = series->array[0].at_path("data.cells");
  const obs::json::Value* scenarios = swept.find("scenarios");
  ASSERT_TRUE(cells != nullptr && scenarios != nullptr);
  ASSERT_EQ(cells->array.size(), 2u);
  ASSERT_EQ(scenarios->array.size(), 2u);
  for (const auto& [method, cluster] :
       {std::pair{"real-cluster", "real"}, std::pair{"EC2", "ec2"}}) {
    const obs::json::Value* cell = nullptr;
    for (const obs::json::Value& c : cells->array)
      if (c.find("method")->string == method) cell = c.find("metrics");
    const obs::json::Value* scenario = nullptr;
    for (const obs::json::Value& s : scenarios->array)
      if (s.find("cluster")->string == cluster) scenario = s.find("metrics");
    ASSERT_TRUE(cell != nullptr && scenario != nullptr) << method;
    EXPECT_TRUE(same_json(*cell, *scenario, "sim_wall_s")) << method;
  }
}

TEST(ExampleCliTest, TraceReplayTakesTheSweepTokens) {
  const std::string trace = tmp_path("replay_tokens.csv");
  ASSERT_EQ(run_cli(DSP_TRACE_REPLAY_BIN, "--emit " + trace + " 4 42").exit_code,
            0);
  const CliResult r = run_cli(DSP_TRACE_REPLAY_BIN,
                              trace + " tetris-simdep none ec2 6");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("tetris-simdep + none on ec2(6)"), std::string::npos)
      << r.output;
  for (const char* args : {"tetris none", "dsp fcfs", "dsp dsp palmetto"}) {
    const CliResult bad = run_cli(DSP_TRACE_REPLAY_BIN, trace + " " + args);
    EXPECT_EQ(bad.exit_code, 2) << args << "\n" << bad.output;
    EXPECT_NE(bad.output.find("unknown"), std::string::npos) << args;
  }
}

TEST(ExampleCliTest, BadNumberExitsNamingTheToken) {
  const std::string trace = tmp_path("replay_numbers.csv");
  ASSERT_EQ(run_cli(DSP_TRACE_REPLAY_BIN, "--emit " + trace + " 4 42").exit_code,
            0);
  const struct {
    const char* bin;
    std::string args;
    const char* token;
  } cases[] = {
      // Node counts once built an empty cluster whose zero mean rate made
      // every job of the trace read as cyclic.
      {DSP_TRACE_REPLAY_BIN, trace + " dsp srpt ec2 abc", "abc"},
      {DSP_TRACE_REPLAY_BIN, trace + " dsp srpt ec2 0", "0"},
      {DSP_TRACE_REPLAY_BIN, trace + " dsp srpt ec2 -3", "-3"},
      {DSP_TRACE_REPLAY_BIN, trace + " dsp srpt ec2 32769", "32769"},
      // Job counts once wrapped into a huge reserve() and aborted.
      {DSP_TRACE_REPLAY_BIN, "--emit " + tmp_path("never.csv") + " -5", "-5"},
      {DSP_TRACE_REPLAY_BIN, "--emit " + tmp_path("never.csv") + " 4 x1", "x1"},
      {DSP_ANALYTICS_PIPELINE_BIN, "-5", "-5"},
      {DSP_ANALYTICS_PIPELINE_BIN, "0", "0"},
      {DSP_ANALYTICS_PIPELINE_BIN, "3 abc", "abc"},
  };
  for (const auto& c : cases) {
    const CliResult r = run_cli(c.bin, c.args);
    EXPECT_EQ(r.exit_code, 2) << c.args << "\n" << r.output;
    EXPECT_NE(r.output.find(std::string("'") + c.token + "'"),
              std::string::npos)
        << c.args << "\n" << r.output;
    EXPECT_EQ(r.output.find("cyclic"), std::string::npos) << c.args;
  }
}

}  // namespace
}  // namespace dsp
