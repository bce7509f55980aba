// Tests for the declarative scenario layer (sim/scenario.h) and the
// standard factory (scenarios/standard.h): cluster recipes, CLI token
// round-trips, seed derivation, failure-recipe instantiation, equivalence
// of run_scenario with the plain simulate() entry point, logged against
// unlogged runs, that simulate() alone honours DSP_EVENT_LOG, the grid's
// largest-first deal order, and grid-runner determinism across thread
// counts, down to each scenario's event stream and the metrics registry
// totals the grid hands its caller.
#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/dsp_scheduler.h"
#include "core/dsp_system.h"
#include "core/preemption.h"
#include "metrics/report.h"
#include "obs/metrics.h"
#include "scenarios/standard.h"
#include "trace/workload.h"

namespace dsp {
namespace {

/// Serialized run outcome with the one nondeterministic field (wall
/// clock) zeroed: equal fingerprints mean bit-identical runs.
std::string fingerprint(RunMetrics m) {
  m.sim_wall_s = 0.0;
  std::ostringstream os;
  write_json(os, m);
  return os.str();
}

/// Every per-job record and waiting time plus the exact makespan, which
/// the JSON fingerprint leaves out or rounds; doubles in hex, so equal
/// strings mean bit-identical values.
std::string job_fingerprint(const RunMetrics& m) {
  std::ostringstream os;
  os << std::hexfloat << m.makespan << '\n';
  for (const JobRecord& r : m.job_records)
    os << r.id << ' ' << static_cast<int>(r.size_class) << ' '
       << static_cast<int>(r.tier) << ' ' << r.arrival << ' ' << r.finish
       << ' ' << r.mean_task_wait_s << ' ' << r.met_deadline << '\n';
  for (const double w : m.job_waiting_s) os << w << '\n';
  return os.str();
}

/// A small, fast spec used by the run-equivalence tests.
ScenarioSpec small_spec(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.cluster.profile = ClusterProfile::kEc2;
  spec.cluster.nodes = 6;
  spec.workload.job_count = 10;
  spec.workload.task_scale = 0.02;
  return spec;
}

// ------------------------------------------------------------------
// Cluster recipes
// ------------------------------------------------------------------

TEST(ClusterRecipeTest, ProfilesUsePaperNodeCounts) {
  ClusterRecipe r;
  r.profile = ClusterProfile::kRealCluster;
  EXPECT_EQ(make_cluster(r).size(), 50u);
  r.profile = ClusterProfile::kEc2;
  EXPECT_EQ(make_cluster(r).size(), 30u);
  r.profile = ClusterProfile::kUniform;
  EXPECT_EQ(make_cluster(r).size(), 8u);
}

TEST(ClusterRecipeTest, ExplicitNodeCountOverridesDefault) {
  ClusterRecipe r;
  r.profile = ClusterProfile::kEc2;
  r.nodes = 6;
  EXPECT_EQ(make_cluster(r).size(), 6u);
}

TEST(ClusterRecipeTest, InvalidUniformShapeIsRejected) {
  // The recipe feeds ClusterSpec's validating constructor: a zero-rate
  // uniform cluster must throw, not produce an unrunnable spec.
  ClusterRecipe r;
  r.profile = ClusterProfile::kUniform;
  r.cpu_mips = 0.0;
  EXPECT_THROW(make_cluster(r), std::invalid_argument);
}

// ------------------------------------------------------------------
// CLI tokens and display names
// ------------------------------------------------------------------

TEST(ScenarioTokensTest, ClusterProfileTokensRoundTrip) {
  for (ClusterProfile p : {ClusterProfile::kRealCluster, ClusterProfile::kEc2,
                           ClusterProfile::kUniform}) {
    ClusterProfile out;
    ASSERT_TRUE(parse_cluster_profile(to_string(p), out)) << to_string(p);
    EXPECT_EQ(out, p);
  }
  ClusterProfile out;
  EXPECT_FALSE(parse_cluster_profile("palmetto", out));
}

TEST(ScenarioTokensTest, SchedKindTokensParse) {
  const std::vector<std::pair<std::string, SchedKind>> tokens{
      {"dsp", SchedKind::kDsp},
      {"aalo", SchedKind::kAalo},
      {"tetris-simdep", SchedKind::kTetrisSimDep},
      {"tetris-nodep", SchedKind::kTetrisNoDep},
  };
  for (const auto& [token, want] : tokens) {
    SchedKind out;
    ASSERT_TRUE(parse_sched_kind(token, out)) << token;
    EXPECT_EQ(out, want);
    EXPECT_EQ(to_token(want), token);
  }
  SchedKind out;
  EXPECT_FALSE(parse_sched_kind("fifo", out));
}

TEST(ScenarioTokensTest, PolicyKindTokensParse) {
  const std::vector<std::pair<std::string, PolicyKind>> tokens{
      {"dsp", PolicyKind::kDsp},       {"dsp-nopp", PolicyKind::kDspNoPp},
      {"amoeba", PolicyKind::kAmoeba}, {"natjam", PolicyKind::kNatjam},
      {"srpt", PolicyKind::kSrpt},     {"none", PolicyKind::kNone},
  };
  for (const auto& [token, want] : tokens) {
    PolicyKind out;
    ASSERT_TRUE(parse_policy_kind(token, out)) << token;
    EXPECT_EQ(out, want);
    EXPECT_EQ(to_token(want), token);
  }
  PolicyKind out;
  EXPECT_FALSE(parse_policy_kind("fcfs", out));
}

TEST(ScenarioTokensTest, DisplayNamesMatchPaperFigures) {
  // The figure tables and JSON reports key on these exact spellings.
  EXPECT_STREQ(to_string(SchedKind::kDsp), "DSP");
  EXPECT_STREQ(to_string(SchedKind::kTetrisSimDep), "TetrisW/SimDep");
  EXPECT_STREQ(to_string(SchedKind::kTetrisNoDep), "TetrisW/oDep");
  EXPECT_STREQ(to_string(PolicyKind::kDspNoPp), "DSPW/oPP");
  EXPECT_STREQ(to_string(PolicyKind::kNone), "none");
}

// ------------------------------------------------------------------
// Seed derivation
// ------------------------------------------------------------------

TEST(ScenarioSeedTest, StableAndSensitiveToBaseAndName) {
  const std::uint64_t a = scenario_seed(42, "alpha");
  EXPECT_EQ(a, scenario_seed(42, "alpha"));
  EXPECT_NE(a, scenario_seed(42, "beta"));
  EXPECT_NE(a, scenario_seed(43, "alpha"));
}

// ------------------------------------------------------------------
// Failure recipes
// ------------------------------------------------------------------

bool same_plan(const FailurePlan& a, const FailurePlan& b) {
  const auto ea = a.sorted_events();
  const auto eb = b.sorted_events();
  if (ea.size() != eb.size()) return false;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].at != eb[i].at || ea[i].node != eb[i].node ||
        ea[i].kind != eb[i].kind || ea[i].factor != eb[i].factor)
      return false;
  }
  return true;
}

TEST(FailureRecipeTest, UnpinnedSeedDerivesFromFallback) {
  FailureRecipe r;
  r.kind = FailureRecipe::Kind::kOutages;
  const ClusterSpec cluster = ClusterSpec::ec2();
  EXPECT_TRUE(same_plan(make_failure_plan(r, cluster, 7),
                        make_failure_plan(r, cluster, 7)));
  EXPECT_FALSE(same_plan(make_failure_plan(r, cluster, 7),
                         make_failure_plan(r, cluster, 8)));
}

TEST(FailureRecipeTest, PinnedSeedIgnoresFallback) {
  FailureRecipe r;
  r.kind = FailureRecipe::Kind::kStragglers;
  r.seed = 99;
  const ClusterSpec cluster = ClusterSpec::ec2();
  EXPECT_TRUE(same_plan(make_failure_plan(r, cluster, 7),
                        make_failure_plan(r, cluster, 8)));
}

TEST(FailureRecipeTest, NoneKindYieldsEmptyPlan) {
  EXPECT_TRUE(
      make_failure_plan(FailureRecipe{}, ClusterSpec::ec2(), 7).empty());
}

// ------------------------------------------------------------------
// run_scenario equivalence and the grid runner
// ------------------------------------------------------------------

TEST(RunScenarioTest, DefaultSpecMatchesPlainSimulate) {
  // A default spec must reproduce the headline configuration: DSP
  // scheduler + DSP preemption with Table II knobs, bit for bit.
  const ScenarioSpec spec = small_spec("equiv");
  const RunMetrics via_scenario = run_standard_scenario(spec);

  const JobSet jobs = WorkloadGenerator(spec.workload, spec.seed).generate();
  DspScheduler sched;
  DspPreemption policy;
  const RunMetrics direct =
      simulate(ClusterSpec::ec2(6), jobs, sched, &policy, spec.engine);

  EXPECT_EQ(fingerprint(via_scenario), fingerprint(direct));
}

TEST(RunScenarioTest, LoggedAndUnloggedRunsDecideAlike) {
  // DspPreemption reads some priorities only when a log is attached (an
  // urgent candidate's, and P-bar for a fired decision's P-tilde), so the
  // two paths run different code. They must decide alike: every counter
  // and per-job record of an unlogged grid cell equals that of the same
  // spec run with a consumer-attached log.
  std::vector<ScenarioSpec> grid;
  for (const ClusterProfile cluster :
       {ClusterProfile::kEc2, ClusterProfile::kRealCluster}) {
    for (const SchedKind sched : {SchedKind::kDsp, SchedKind::kTetrisNoDep}) {
      for (const PolicyKind policy : {PolicyKind::kDsp, PolicyKind::kDspNoPp}) {
        ScenarioSpec spec;
        spec.name = std::string(to_string(cluster)) + "-" + to_token(sched) +
                    "-" + to_token(policy);
        spec.cluster.profile = cluster;
        spec.cluster.nodes = 8;
        spec.workload.job_count = 30;
        spec.workload.task_scale = 0.03;
        spec.sched = sched;
        spec.policy = policy;
        grid.push_back(std::move(spec));
      }
    }
  }
  GridOptions options;
  options.threads = 1;
  const std::vector<RunMetrics> unlogged =
      run_standard_grid(grid, options).metrics;
  ASSERT_EQ(unlogged.size(), grid.size());

  std::uint64_t fired = 0, suppressed = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    obs::EventLog log;
    std::uint64_t decisions = 0;
    log.set_consumer([&decisions](const obs::Event& e) {
      if (e.kind == obs::EventKind::kPreemptDecision) ++decisions;
    });
    const RunMetrics logged = run_standard_scenario(grid[i], &log);
    EXPECT_EQ(decisions, logged.preempt_evaluations) << grid[i].name;
    EXPECT_EQ(fingerprint(logged), fingerprint(unlogged[i])) << grid[i].name;
    EXPECT_EQ(job_fingerprint(logged), job_fingerprint(unlogged[i]))
        << grid[i].name;
    fired += logged.preemptions;
    suppressed += logged.suppressed_preemptions;
  }
  // Both decisions that read P-bar only for the log and PP tests that
  // read it to decide must occur, or the comparison proves little.
  EXPECT_GT(fired, 0u);
  EXPECT_GT(suppressed, 0u);
}

TEST(RunScenarioTest, NonePolicyRunsOfflineOnly) {
  ScenarioSpec spec = small_spec("offline");
  spec.policy = PolicyKind::kNone;
  const RunMetrics m = run_standard_scenario(spec);
  EXPECT_EQ(m.preemptions, 0u);
  EXPECT_EQ(m.jobs_finished, spec.workload.job_count);
}

/// DSP, SRPT and offline-only cells of the small spec.
std::vector<ScenarioSpec> policy_grid() {
  std::vector<ScenarioSpec> grid;
  for (PolicyKind policy :
       {PolicyKind::kDsp, PolicyKind::kSrpt, PolicyKind::kNone}) {
    ScenarioSpec spec = small_spec(std::string("grid-") + to_string(policy));
    spec.policy = policy;
    grid.push_back(std::move(spec));
  }
  return grid;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ScenarioGridTest, ResultsMatchSequentialAtAnyThreadCount) {
  const std::vector<ScenarioSpec> grid = policy_grid();

  GridOptions one;
  one.threads = 1;
  GridOptions four;
  four.threads = 4;
  const std::vector<RunMetrics> r1 = run_standard_grid(grid, one).metrics;
  const std::vector<RunMetrics> r4 = run_standard_grid(grid, four).metrics;

  ASSERT_EQ(r1.size(), grid.size());
  ASSERT_EQ(r4.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(fingerprint(r1[i]), fingerprint(r4[i])) << grid[i].name;
    EXPECT_EQ(fingerprint(r1[i]),
              fingerprint(run_standard_scenario(grid[i])))
        << grid[i].name;
  }
}

TEST(ScenarioGridTest, EventStreamsIdenticalAcrossThreadCounts) {
  const std::vector<ScenarioSpec> grid = policy_grid();
  const std::string root = ::testing::TempDir() + "/scenario_grid_streams";
  std::vector<std::string> dirs;
  for (const unsigned threads : {1u, 4u}) {
    GridOptions options;
    options.threads = threads;
    options.event_log_dir = root + "/t" + std::to_string(threads);
    std::filesystem::create_directories(options.event_log_dir);
    EXPECT_TRUE(run_standard_grid(grid, options).failed_event_logs.empty());
    dirs.push_back(options.event_log_dir);
  }
  for (const ScenarioSpec& spec : grid) {
    const std::string one = slurp(dirs[0] + "/" + spec.name + ".jsonl");
    ASSERT_FALSE(one.empty()) << spec.name;
    EXPECT_TRUE(one == slurp(dirs[1] + "/" + spec.name + ".jsonl"))
        << spec.name << ": streams differ between 1 and 4 workers";
  }
  std::filesystem::remove_all(root);
}

TEST(ScenarioGridTest, UnopenableEventLogsAreReturnedAndTheirCellsNotRun) {
  const std::vector<ScenarioSpec> grid = policy_grid();
  GridOptions options;
  options.threads = 2;
  options.event_log_dir = ::testing::TempDir() + "/no_such_dir/streams";
  std::filesystem::remove_all(::testing::TempDir() + "/no_such_dir");
  const GridResults run = run_standard_grid(grid, options);

  ASSERT_EQ(run.metrics.size(), grid.size());
  ASSERT_EQ(run.failed_event_logs.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(run.failed_event_logs[i],
              options.event_log_dir + "/" + grid[i].name + ".jsonl");
    EXPECT_EQ(run.metrics[i].jobs_finished, 0u) << grid[i].name;
  }
}

/// Wraps the standard factory and notes, in call order, the name of every
/// spec it builds a scheduler for: the order the grid starts its cells.
class RecordingFactory : public ScenarioFactory {
 public:
  std::unique_ptr<Scheduler> make_scheduler(
      const ScenarioSpec& spec) const override {
    started.push_back(spec.name);
    return standard_.make_scheduler(spec);
  }
  std::unique_ptr<PreemptionPolicy> make_policy(
      const ScenarioSpec& spec) const override {
    return standard_.make_policy(spec);
  }

  mutable std::vector<std::string> started;

 private:
  StandardScenarioFactory standard_;
};

TEST(ScenarioGridTest, DealsLargestCellsFirstAndReturnsListOrder) {
  // Listed in ascending job count, as the benches list their x-axis; the
  // two 8-job cells tie and must keep their list order.
  std::vector<ScenarioSpec> grid;
  for (const auto& [name, jobs, policy] :
       {std::tuple{"j4", 4, PolicyKind::kDsp},
        std::tuple{"j8-dsp", 8, PolicyKind::kDsp},
        std::tuple{"j8-srpt", 8, PolicyKind::kSrpt},
        std::tuple{"j12", 12, PolicyKind::kDsp},
        std::tuple{"j16", 16, PolicyKind::kNone}}) {
    ScenarioSpec spec = small_spec(name);
    spec.workload.job_count = static_cast<std::size_t>(jobs);
    spec.policy = policy;
    grid.push_back(std::move(spec));
  }
  const RecordingFactory factory;
  GridOptions options;
  options.threads = 1;  // one worker starts the cells in deal order
  const std::vector<RunMetrics> results =
      run_scenario_grid(grid, factory, options).metrics;

  EXPECT_EQ(factory.started,
            (std::vector<std::string>{"j16", "j12", "j8-dsp", "j8-srpt",
                                      "j4"}));
  ASSERT_EQ(results.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(results[i].jobs_finished, grid[i].workload.job_count)
        << grid[i].name;
    EXPECT_EQ(fingerprint(results[i]),
              fingerprint(run_standard_scenario(grid[i])))
        << grid[i].name;
  }
}

/// The shape of micro_bench's BM_SweepGrid: EC2, 20 jobs at task scale
/// 0.02, every policy.
std::vector<ScenarioSpec> sweep_grid() {
  std::vector<ScenarioSpec> grid;
  for (PolicyKind policy : {PolicyKind::kDsp, PolicyKind::kDspNoPp,
                            PolicyKind::kAmoeba, PolicyKind::kNatjam,
                            PolicyKind::kSrpt, PolicyKind::kNone}) {
    ScenarioSpec spec;
    spec.name = std::string("sweep-") + to_string(policy);
    spec.cluster.profile = ClusterProfile::kEc2;
    spec.workload.job_count = 20;
    spec.workload.task_scale = 0.02;
    spec.policy = policy;
    grid.push_back(std::move(spec));
  }
  return grid;
}

/// Every counter value and histogram count of the calling thread's
/// current registry, in catalogue order. Histogram sums are wall-clock
/// timings, so only their counts are comparable across runs.
std::vector<std::uint64_t> registry_tally() {
  obs::MetricsRegistry& reg = obs::default_registry();
  std::vector<std::uint64_t> tally;
  for (const std::string_view name : obs::kCounterNames)
    tally.push_back(reg.counter(name)->value());
  for (const std::string_view name : obs::kHistogramNames)
    tally.push_back(reg.histogram(name)->snapshot().count);
  return tally;
}

TEST(ScenarioGridTest, CallerRegistryTotalsMatchAtAnyThreadCount) {
  const std::vector<ScenarioSpec> grid = sweep_grid();
  std::vector<std::vector<std::uint64_t>> tallies;
  for (const unsigned threads : {1u, 4u}) {
    obs::default_registry().reset();
    GridOptions options;
    options.threads = threads;
    run_standard_grid(grid, options);
    tallies.push_back(registry_tally());
  }
  obs::MetricsRegistry& caller = obs::default_registry();
  caller.reset();
  for (const ScenarioSpec& spec : grid) run_standard_scenario(spec);
  EXPECT_EQ(caller.counter("engine.runs")->value(), grid.size());
  EXPECT_GT(caller.counter("preempt.fired")->value(), 0u);

  EXPECT_EQ(tallies[0], tallies[1]) << "registry totals depend on --threads";
  EXPECT_EQ(tallies[0], registry_tally())
      << "the grid's merged totals differ from the same runs one at a time";
  caller.reset();
}

/// Sets DSP_EVENT_LOG for one scope and unsets it on the way out, also
/// when an assertion returns early.
class ScopedEventLogEnv {
 public:
  explicit ScopedEventLogEnv(const std::string& path) {
    setenv("DSP_EVENT_LOG", path.c_str(), 1);
  }
  ~ScopedEventLogEnv() { unsetenv("DSP_EVENT_LOG"); }
  ScopedEventLogEnv(const ScopedEventLogEnv&) = delete;
  ScopedEventLogEnv& operator=(const ScopedEventLogEnv&) = delete;
};

/// True when `path` exists and is non-empty; removes it either way.
bool take_file(const std::string& path) {
  std::error_code ec;
  const bool written = std::filesystem::file_size(path, ec) > 0 && !ec;
  std::filesystem::remove(path, ec);
  return written;
}

TEST(ScenarioGridTest, OnlySimulateHonoursEventLogEnv) {
  const std::string path = ::testing::TempDir() + "/env_event_log.jsonl";
  std::filesystem::remove(path);
  const ScopedEventLogEnv env(path);

  // The grid attaches a log only for event_log_dir: its cells run
  // unlogged and never open the DSP_EVENT_LOG sink.
  GridOptions options;
  options.threads = 2;
  run_standard_grid(policy_grid(), options);
  EXPECT_FALSE(take_file(path)) << "a grid run wrote DSP_EVENT_LOG";

  // The Engine itself reads no environment either.
  const ScenarioSpec spec = small_spec("env");
  const JobSet jobs = WorkloadGenerator(spec.workload, spec.seed).generate();
  {
    DspScheduler sched;
    DspPreemption policy;
    Engine engine(ClusterSpec::ec2(6), jobs, sched, &policy, spec.engine);
    engine.run();
  }
  EXPECT_FALSE(take_file(path)) << "a bare Engine run wrote DSP_EVENT_LOG";

  // run_scenario given no log runs with none.
  run_standard_scenario(spec);
  EXPECT_FALSE(take_file(path))
      << "run_scenario given no log wrote DSP_EVENT_LOG";

  // simulate() is the one library entry point that records into it.
  DspScheduler sched;
  DspPreemption policy;
  simulate(ClusterSpec::ec2(6), jobs, sched, &policy, spec.engine);
  EXPECT_TRUE(take_file(path)) << "simulate ignored DSP_EVENT_LOG";
}

}  // namespace
}  // namespace dsp
