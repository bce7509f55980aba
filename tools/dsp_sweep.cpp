// dsp_sweep — parallel scenario-grid runner.
//
// Expands the cross product of the --cluster/--sched/--policy/--jobs/
// --seeds axes into a ScenarioSpec grid, runs it on --threads workers
// (sim/scenario.h run_scenario_grid) and reports one row per scenario.
// Malformed or out-of-range numeric arguments exit 2 with a message. An
// output that cannot be written — an --event-log-dir stream, the --json
// report or standard output — exits 1 naming it.
//
//   dsp_sweep --cluster real,ec2 --sched dsp --policy dsp,srpt
//             --jobs 150,300 --seeds 42,43 --threads 4 --json sweep.json
//
// --threads 0 (the default) takes the worker count from DSP_THREADS,
// parsed as strictly as the flags: an integer from 1 to 4294967295, unset
// meaning 1.
//
// Determinism contract: each scenario is a pure function of its spec.
// The grid is sorted by scenario name, which orders the report (the
// runner deals the largest cells first whatever the order), and
// sim_wall_s is zeroed in the JSON (wall clock is the only
// non-deterministic field), so the report is byte-identical at any
// --threads setting and any axis order on the command line. tools/ci.sh
// sweep-smoke enforces this.
//
// Every fig5-fig8 bench cell is a dsp_sweep cell (scale 0.1 = the
// benches' default DSP_SCALE), so --event-log-dir records any of them,
// e.g. Fig. 7's SRPT cell at 750 jobs:
//   dsp_sweep --cluster ec2 --sched dsp --policy srpt --jobs 750
//             --scale 0.1 --event-log-dir <dir>
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "metrics/report.h"
#include "obs/metrics.h"
#include "scenarios/standard.h"
#include "sim/scenario.h"
#include "util/env.h"
#include "util/log.h"
#include "util/parse.h"
#include "util/time.h"

namespace {

using namespace dsp;

struct Cli {
  std::vector<ClusterProfile> clusters{ClusterProfile::kEc2};
  std::vector<SchedKind> scheds{SchedKind::kDsp};
  std::vector<PolicyKind> policies{PolicyKind::kDsp};
  std::vector<unsigned long long> jobs{150};
  std::vector<unsigned long long> seeds{42};
  double scale = 0.05;
  unsigned threads = 0;  // 0 = DSP_THREADS, read by parse_cli
  std::string json_path;
  std::string event_log_dir;
  bool ok = true;
};

std::vector<std::string> split_commas(const char* arg) {
  std::vector<std::string> out;
  std::string token;
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) out.push_back(token);
      token.clear();
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return out;
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --cluster real,ec2,uniform   testbed profiles (default ec2)\n"
      "  --sched dsp,aalo,tetris-simdep,tetris-nodep\n"
      "                               schedulers (default dsp)\n"
      "  --policy dsp,dsp-nopp,amoeba,natjam,srpt,none\n"
      "                               preemption policies (default dsp)\n"
      "  --jobs 150,300               job counts (default 150)\n"
      "  --seeds 42,43                workload seeds (default 42)\n"
      "  --scale 0.05                 task_scale multiplier (default 0.05)\n"
      "  --threads N                  workers; 0 reads DSP_THREADS\n"
      "  --json <path>                merged machine-readable report\n"
      "  --event-log-dir <dir>        per-scenario flight-recorder JSONL\n",
      argv0);
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  auto need_value = [&](int i) {
    if (i + 1 < argc) return true;
    std::fprintf(stderr, "%s: %s requires a value\n", argv[0], argv[i]);
    cli.ok = false;
    return false;
  };
  auto reject = [&](const char* flag, const std::string& token,
                    const char* want) {
    std::fprintf(stderr, "%s: invalid %s value '%s' (expected %s)\n",
                 argv[0], flag, token.c_str(), want);
    cli.ok = false;
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--cluster") == 0 && need_value(i)) {
      cli.clusters.clear();
      for (const std::string& s : split_commas(argv[++i])) {
        ClusterProfile p;
        if (!parse_cluster_profile(s, p)) {
          std::fprintf(stderr, "%s: unknown cluster profile '%s'\n", argv[0],
                       s.c_str());
          cli.ok = false;
        } else {
          cli.clusters.push_back(p);
        }
      }
    } else if (std::strcmp(a, "--sched") == 0 && need_value(i)) {
      cli.scheds.clear();
      for (const std::string& s : split_commas(argv[++i])) {
        SchedKind k;
        if (!parse_sched_kind(s, k)) {
          std::fprintf(stderr, "%s: unknown scheduler '%s'\n", argv[0],
                       s.c_str());
          cli.ok = false;
        } else {
          cli.scheds.push_back(k);
        }
      }
    } else if (std::strcmp(a, "--policy") == 0 && need_value(i)) {
      cli.policies.clear();
      for (const std::string& s : split_commas(argv[++i])) {
        PolicyKind k;
        if (!parse_policy_kind(s, k)) {
          std::fprintf(stderr, "%s: unknown policy '%s'\n", argv[0],
                       s.c_str());
          cli.ok = false;
        } else {
          cli.policies.push_back(k);
        }
      }
    } else if (std::strcmp(a, "--jobs") == 0 && need_value(i)) {
      cli.jobs.clear();
      for (const std::string& s : split_commas(argv[++i])) {
        unsigned long long n = 0;
        if (!parse_count(s, n) || n == 0)
          reject(a, s, "an integer >= 1");
        else
          cli.jobs.push_back(n);
      }
    } else if (std::strcmp(a, "--seeds") == 0 && need_value(i)) {
      cli.seeds.clear();
      for (const std::string& s : split_commas(argv[++i])) {
        unsigned long long seed = 0;
        if (!parse_count(s, seed))
          reject(a, s, "an unsigned 64-bit integer");
        else
          cli.seeds.push_back(seed);
      }
    } else if (std::strcmp(a, "--scale") == 0 && need_value(i)) {
      if (!parse_positive(argv[++i], cli.scale))
        reject(a, argv[i], "a finite number > 0");
    } else if (std::strcmp(a, "--threads") == 0 && need_value(i)) {
      unsigned long long n = 0;
      if (!parse_count(argv[++i], n) || n > UINT_MAX)
        reject(a, argv[i],
               "an unsigned 32-bit integer; 0 reads DSP_THREADS");
      else
        cli.threads = static_cast<unsigned>(n);
    } else if (std::strcmp(a, "--json") == 0 && need_value(i)) {
      cli.json_path = argv[++i];
    } else if (std::strcmp(a, "--event-log-dir") == 0 && need_value(i)) {
      cli.event_log_dir = argv[++i];
    } else if (!cli.ok) {
      break;  // a missing value already failed the parse
    } else {
      usage(argv[0]);
      cli.ok = false;
      break;
    }
  }
  if (cli.ok && (cli.clusters.empty() || cli.scheds.empty() ||
                 cli.policies.empty() || cli.jobs.empty() ||
                 cli.seeds.empty())) {
    std::fprintf(stderr, "%s: every axis needs at least one value\n", argv[0]);
    cli.ok = false;
  }
  if (cli.ok && cli.threads == 0) {
    const std::string env = env_string("DSP_THREADS", "");
    unsigned long long n = 1;
    if (!env.empty() && (!parse_count(env, n) || n == 0 || n > UINT_MAX)) {
      std::fprintf(stderr,
                   "%s: DSP_THREADS=\"%s\" is invalid: expected an integer "
                   "from 1 to 4294967295\n",
                   argv[0], env.c_str());
      cli.ok = false;
    }
    cli.threads = static_cast<unsigned>(n);
  }
  return cli;
}

std::vector<ScenarioSpec> build_grid(const Cli& cli) {
  std::vector<ScenarioSpec> grid;
  for (const ClusterProfile cluster : cli.clusters)
    for (const SchedKind sched : cli.scheds)
      for (const PolicyKind policy : cli.policies)
        for (const unsigned long long jobs : cli.jobs)
          for (const unsigned long long seed : cli.seeds) {
            ScenarioSpec spec;
            spec.name = std::string(to_string(cluster)) + "-" +
                        to_token(sched) + "-" + to_token(policy) +
                        "-j" + std::to_string(jobs) + "-s" +
                        std::to_string(seed);
            spec.cluster.profile = cluster;
            spec.workload.job_count = static_cast<std::size_t>(jobs);
            spec.workload.task_scale = cli.scale;
            spec.sched = sched;
            spec.policy = policy;
            spec.seed = seed;
            grid.push_back(std::move(spec));
          }
  // Name order, not command-line order: the report is identical no matter
  // how the axes were spelled.
  std::sort(grid.begin(), grid.end(),
            [](const ScenarioSpec& a, const ScenarioSpec& b) {
              return a.name < b.name;
            });
  return grid;
}

bool write_report(const std::string& path, const Cli& cli,
                  const std::vector<ScenarioSpec>& grid,
                  const std::vector<RunMetrics>& results) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "dsp_sweep: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << "{\"sweep\":{\"scale\":";
  obs::write_json_number(out, cli.scale);
  out << ",\"scenarios\":" << grid.size() << '}';
  out << ",\"scenarios\":[";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i) out << ',';
    out << "{\"name\":";
    obs::write_json_string(out, grid[i].name);
    out << ",\"cluster\":";
    obs::write_json_string(out, to_string(grid[i].cluster.profile));
    out << ",\"sched\":";
    obs::write_json_string(out, to_string(grid[i].sched));
    out << ",\"policy\":";
    obs::write_json_string(out, to_string(grid[i].policy));
    out << ",\"jobs\":" << grid[i].workload.job_count;
    out << ",\"seed\":" << grid[i].seed;
    // sim_wall_s is wall clock — the one field that varies run to run.
    // Zero it so the report is byte-identical across thread counts.
    RunMetrics m = results[i];
    m.sim_wall_s = 0.0;
    out << ",\"metrics\":";
    write_json(out, m);
    out << '}';
  }
  out << "]}\n";
  // Closing flushes the buffer: a full disk shows up only here.
  out.close();
  if (!out) {
    std::fprintf(stderr, "dsp_sweep: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);
  if (!cli.ok) return 2;

  const std::vector<ScenarioSpec> grid = build_grid(cli);
  GridOptions options;
  options.threads = cli.threads;
  options.event_log_dir = cli.event_log_dir;
  const GridResults run = run_standard_grid(grid, options);
  // A requested event stream that could not be written fails the sweep;
  // nothing is reported from a grid with missing or truncated streams.
  for (const std::string& path : run.failed_event_logs)
    std::fprintf(stderr, "dsp_sweep: cannot write event log %s\n",
                 path.c_str());
  if (!run.failed_event_logs.empty()) return 1;
  const std::vector<RunMetrics>& results = run.metrics;

  std::printf("%-34s %12s %8s %10s %10s\n", "scenario", "makespan_s",
              "jobs", "preempts", "disorders");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const RunMetrics& m = results[i];
    std::printf("%-34s %12.1f %8llu %10llu %10llu\n", grid[i].name.c_str(),
                to_seconds(m.makespan),
                static_cast<unsigned long long>(m.jobs_finished),
                static_cast<unsigned long long>(m.preemptions),
                static_cast<unsigned long long>(m.disorders));
  }

  if (!cli.json_path.empty()) {
    if (!write_report(cli.json_path, cli, grid, results)) return 1;
    std::printf("\nJSON report written to %s\n", cli.json_path.c_str());
  }
  return flush_stdout("dsp_sweep") ? 0 : 1;
}
