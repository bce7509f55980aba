// Black-box tests of the tools/dsp_report and tools/bench_diff CLIs.
//
// Event logs are generated in-process (engine + flight recorder sink),
// then the installed binaries are driven over them: the analytics mode's
// --json must parse with the documented schema, the diff mode must
// report zero divergence for two same-seed runs (the determinism
// guarantee) and must pinpoint the exact first differing event in a
// seeded-mutation log; the latency percentiles must cover every sample
// of a hand-written log. Binary locations are
// injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dsp_scheduler.h"
#include "core/preemption.h"
#include "obs/events.h"
#include "obs/json.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/workload.h"

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

CliResult report(const std::string& args) {
  return run_cli(DSP_REPORT_BIN, args);
}

CliResult bench_diff(const std::string& args) {
  return run_cli(DSP_BENCH_DIFF_BIN, args);
}

/// Runs a contended workload with the recorder streaming to `path`.
void write_log(const std::string& path, std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.job_count = 6;
  cfg.task_scale = 0.01;
  cfg.cpu_max = 2.0;
  cfg.mem_max = 1.8;
  cfg.min_arrival_rate = 30.0;
  cfg.max_arrival_rate = 40.0;
  const JobSet jobs = WorkloadGenerator(cfg, seed).generate();
  DspScheduler sched;
  DspPreemption policy;
  EngineParams ep;
  ep.period = 1 * kSecond;
  ep.epoch = 500 * kMillisecond;
  Engine engine(ClusterSpec::uniform(2, 1800.0, 2.0, 2), jobs, sched, &policy,
                ep);
  obs::EventLog log;
  ASSERT_TRUE(log.open_sink(path));
  engine.set_event_log(&log);
  engine.run();
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool parse_file(const std::string& path, obs::json::Value& root,
                std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return obs::json::parse(buf.str(), root, &error);
}

TEST(DspReportCliTest, AnalyticsJsonMatchesSchema) {
  const std::string log = tmp_path("report_run.jsonl");
  write_log(log, 913);
  const std::string out = tmp_path("report_run.json");

  const CliResult r = report(log + " --json " + out);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // The text report carries all three sections.
  EXPECT_NE(r.output.find("Per-job timeline"), std::string::npos);
  EXPECT_NE(r.output.find("queueing_delay"), std::string::npos);
  EXPECT_NE(r.output.find("utilization per epoch"), std::string::npos);

  obs::json::Value root;
  std::string error;
  ASSERT_TRUE(parse_file(out, root, error)) << error;
  for (const char* path :
       {"report", "events", "jobs.count", "jobs.completed",
        "jobs.deadline_met", "queueing_delay_s.count", "queueing_delay_s.p95",
        "preempt_latency_s.count", "preempt.decisions", "utilization.epochs",
        "utilization.mean", "utilization.series", "per_job"})
    EXPECT_NE(root.at_path(path), nullptr) << "missing " << path;
  EXPECT_EQ(root.at_path("jobs.count")->number, 6.0);
  EXPECT_EQ(root.at_path("jobs.completed")->number, 6.0);
  EXPECT_GT(root.at_path("events")->number, 0.0);
  std::remove(log.c_str());
  std::remove(out.c_str());
}

TEST(DspReportCliTest, PercentilesCoverEveryQueueingSample) {
  // 10,000 enqueue -> dispatch pairs: the first 5,000 wait 1 s, the last
  // 5,000 wait 3 s. Over all samples the median falls between the two
  // halves (2 s); a window of the most recent samples would see mostly
  // 3 s waits.
  const std::string log = tmp_path("report_percentiles.jsonl");
  const std::string out = tmp_path("report_percentiles.json");
  {
    std::ofstream f(log);
    std::string lines;
    constexpr int kPairs = 10000;
    for (int i = 0; i < kPairs; ++i) {
      const SimTime start = static_cast<SimTime>(i) * 10 * kSecond;
      const SimTime wait = (i < kPairs / 2 ? 1 : 3) * kSecond;
      const Gid task = static_cast<Gid>(i);
      obs::EventLog::append_jsonl(
          {.time = start, .kind = obs::EventKind::kTaskEnqueue, .job = 0,
           .task = task, .node = 0},
          lines);
      obs::EventLog::append_jsonl(
          {.time = start + wait, .kind = obs::EventKind::kTaskDispatch,
           .job = 0, .task = task, .node = 0},
          lines);
      obs::EventLog::append_jsonl(
          {.time = start + wait + kSecond, .kind = obs::EventKind::kTaskFinish,
           .job = 0, .task = task, .node = 0},
          lines);
    }
    f << lines;
  }

  const CliResult r = report(log + " --json " + out);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  obs::json::Value root;
  std::string error;
  ASSERT_TRUE(parse_file(out, root, error)) << error;
  ASSERT_NE(root.at_path("queueing_delay_s.count"), nullptr);
  EXPECT_EQ(root.at_path("queueing_delay_s.count")->number, 10000.0);
  EXPECT_DOUBLE_EQ(root.at_path("queueing_delay_s.mean")->number, 2.0);
  EXPECT_DOUBLE_EQ(root.at_path("queueing_delay_s.p50")->number, 2.0);
  EXPECT_DOUBLE_EQ(root.at_path("queueing_delay_s.p95")->number, 3.0);
  EXPECT_DOUBLE_EQ(root.at_path("queueing_delay_s.p99")->number, 3.0);
  std::remove(log.c_str());
  std::remove(out.c_str());
}

TEST(DspReportCliTest, DiffOfSameSeedRunsIsIdentical) {
  const std::string a = tmp_path("diff_a.jsonl");
  const std::string b = tmp_path("diff_b.jsonl");
  write_log(a, 331);
  write_log(b, 331);

  const CliResult r = report("diff " + a + " " + b);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("identical"), std::string::npos) << r.output;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(DspReportCliTest, DiffPinpointsSeededMutation) {
  const std::string a = tmp_path("mut_a.jsonl");
  write_log(a, 577);

  // Mutate one field of line 13 (0-based event 12).
  std::vector<std::string> lines;
  {
    std::ifstream in(a);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 13u);
  const std::string b = tmp_path("mut_b.jsonl");
  {
    std::ofstream out(b);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i == 12) {
        const std::size_t at = lines[i].find("\"t\":");
        ASSERT_NE(at, std::string::npos);
        lines[i].insert(at + 4, "9");  // shift the timestamp
      }
      out << lines[i] << "\n";
    }
  }

  const std::string json = tmp_path("mut_diff.json");
  const CliResult r = report("diff " + a + " " + b + " --json " + json);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("first divergence at event 12"), std::string::npos)
      << r.output;

  obs::json::Value root;
  std::string error;
  ASSERT_TRUE(parse_file(json, root, error)) << error;
  EXPECT_EQ(root.at_path("divergence")->number, 12.0);
  ASSERT_NE(root.at_path("line_a"), nullptr);
  EXPECT_FALSE(root.at_path("line_a")->string.empty());
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(json.c_str());
}

TEST(DspReportCliTest, DiffCatchesTruncatedLog) {
  const std::string a = tmp_path("trunc_a.jsonl");
  write_log(a, 701);
  std::vector<std::string> lines;
  {
    std::ifstream in(a);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  const std::string b = tmp_path("trunc_b.jsonl");
  {
    std::ofstream out(b);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << "\n";
  }
  const CliResult r = report("diff " + a + " " + b);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("end of log"), std::string::npos) << r.output;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(DspReportCliTest, UsageAndMissingFilesExitTwo) {
  EXPECT_EQ(report("").exit_code, 2);
  EXPECT_EQ(report("a b c").exit_code, 2);
  EXPECT_EQ(report("--bogus x").exit_code, 2);
  EXPECT_EQ(report(tmp_path("no_such_log.jsonl")).exit_code, 2);
  EXPECT_EQ(report("diff " + tmp_path("nope1") + " " + tmp_path("nope2"))
                .exit_code,
            2);
}

TEST(DspReportCliTest, UnwritableJsonFailsNamingThePath) {
  // /dev/full accepts the open and fails the write, which once surfaced
  // only when the stream was flushed after the report claimed success.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string log = tmp_path("report_full.jsonl");
  write_log(log, 913);
  for (const std::string& args :
       {log + " --json /dev/full", "diff " + log + " " + log +
                                       " --json /dev/full"}) {
    const CliResult r = report(args);
    EXPECT_NE(r.exit_code, 0) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("/dev/full"), std::string::npos)
        << args << "\n" << r.output;
  }
  std::remove(log.c_str());
}

TEST(DspReportCliTest, StdoutWriteFailureExitsTwo) {
  // The tables of both modes go to standard output; a full device must
  // fail the run rather than exit 0 with nothing written.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string log = tmp_path("report_stdout_full.jsonl");
  write_log(log, 917);
  for (const std::string& args : {log, "diff " + log + " " + log}) {
    const CliResult r = run_cli(DSP_REPORT_BIN, args, "/dev/full");
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    // The whole line: the bare program name, not a path.
    EXPECT_NE(("\n" + r.output)
                  .find("\ndsp_report: cannot write standard output\n"),
              std::string::npos)
        << args << "\n" << r.output;
  }
  std::remove(log.c_str());
}

// ---------------------------------------------------------------------
// bench_diff
// ---------------------------------------------------------------------

void write_bench_json(const std::string& path, double a_ns, double b_ns) {
  std::ofstream out(path);
  out << "{\"bench\":\"micro\",\"scalars\":{\"BM_A_ns\":" << a_ns
      << ",\"BM_B_ns\":" << b_ns << "}}\n";
}

TEST(BenchDiffCliTest, PassesWithinThresholdFailsBeyond) {
  const std::string base = tmp_path("bench_base.json");
  const std::string cand = tmp_path("bench_cand.json");
  write_bench_json(base, 100.0, 200.0);
  write_bench_json(cand, 104.0, 195.0);  // +4%, -2.5%

  EXPECT_EQ(bench_diff(base + " " + cand + " --threshold 5").exit_code, 0);

  const CliResult fail =
      bench_diff(base + " " + cand + " --threshold 3");
  EXPECT_EQ(fail.exit_code, 1) << fail.output;
  EXPECT_NE(fail.output.find("REGRESSED"), std::string::npos) << fail.output;
  EXPECT_NE(fail.output.find("BM_A_ns"), std::string::npos) << fail.output;
  std::remove(base.c_str());
  std::remove(cand.c_str());
}

TEST(BenchDiffCliTest, StdoutWriteFailureExitsTwo) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string base = tmp_path("bench_full_base.json");
  write_bench_json(base, 100.0, 200.0);
  const CliResult r = run_cli(DSP_BENCH_DIFF_BIN, base + " " + base, "/dev/full");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  // The whole line: the bare program name, not a path.
  EXPECT_NE(("\n" + r.output)
                .find("\nbench_diff: cannot write standard output\n"),
            std::string::npos)
      << r.output;
  std::remove(base.c_str());
}

TEST(BenchDiffCliTest, EmptyIntersectionAndBadInputExitTwo) {
  const std::string base = tmp_path("bench_empty.json");
  const std::string other = tmp_path("bench_other.json");
  {
    std::ofstream out(base);
    out << "{\"scalars\":{\"BM_X_ns\":1}}\n";
  }
  {
    std::ofstream out(other);
    out << "{\"scalars\":{\"BM_Y_ns\":1}}\n";
  }
  EXPECT_EQ(bench_diff(base + " " + other).exit_code, 2);

  const std::string bad = tmp_path("bench_bad.json");
  {
    std::ofstream out(bad);
    out << "not json\n";
  }
  EXPECT_EQ(bench_diff(base + " " + bad).exit_code, 2);
  EXPECT_EQ(bench_diff(base).exit_code, 2);  // usage
  // A threshold that is not a finite number >= 0 would pass or fail every
  // scalar regardless of its delta.
  for (const char* threshold : {"nan", "inf", "-5", "5x", ""}) {
    const CliResult r = bench_diff(base + " " + base + " --threshold '" +
                                   threshold + "'");
    EXPECT_EQ(r.exit_code, 2) << threshold << "\n" << r.output;
    EXPECT_NE(r.output.find("--threshold"), std::string::npos)
        << threshold << "\n" << r.output;
  }
  std::remove(base.c_str());
  std::remove(other.c_str());
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace dsp
