// Declarative simulation scenarios and the parallel grid runner.
//
// The paper's evaluation (§V) is a grid: two testbeds × five baselines ×
// ablation knobs × seeds. A ScenarioSpec captures one cell of that grid as
// data — cluster profile, workload recipe, policy pair, DSP settings, seed
// — so experiment drivers (bench/fig*, tools/dsp_sweep) enumerate specs
// instead of hand-rolling private loops. run_scenario() turns one spec into a
// RunMetrics via a fresh Engine (the kernel stack is re-entrant: nothing
// survives a run except the returned metrics); run_scenario_grid() fans a
// spec list over parallel_for (util/thread_pool.h), one independent
// Engine per scenario, with results in grid order regardless of thread
// interleaving. The grid is the only fan-out: a single run is serial.
//
// Policy construction is behind the abstract ScenarioFactory so this layer
// stays below core/ and baselines/ in the link order; the standard factory
// for the paper's methods lives in scenarios/standard.h. The one include
// from core/ is core/params.h, which is header-only and includes only
// util/time.h, so a spec carries DspParams without a link to dsp_core.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/params.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "sim/failures.h"
#include "sim/run_metrics.h"
#include "trace/workload.h"
#include "util/time.h"

namespace dsp {

// ------------------------------------------------------------------
// Cluster recipe.
// ------------------------------------------------------------------

/// Which testbed profile to instantiate (§V).
enum class ClusterProfile : std::uint8_t {
  kRealCluster,  ///< Palmetto-style servers (default 50 nodes).
  kEc2,          ///< EC2 instances (default 30 nodes).
  kUniform,      ///< Homogeneous test cluster (explicit node shape).
};

const char* to_string(ClusterProfile p);
/// Inverse of to_string over CLI tokens ("real", "ec2", "uniform");
/// false when `s` names no profile.
bool parse_cluster_profile(std::string_view s, ClusterProfile& out);

/// Declarative cluster description; make_cluster() instantiates it.
struct ClusterRecipe {
  ClusterProfile profile = ClusterProfile::kRealCluster;
  /// Node count; 0 uses the profile's paper default (50 / 30 / 8).
  std::size_t nodes = 0;
  // kUniform shape (ignored by the paper profiles):
  double cpu_mips = 2660.0;
  double mem_gb = 4.0;
  int slots = 2;
};

ClusterSpec make_cluster(const ClusterRecipe& recipe);

// ------------------------------------------------------------------
// Policy pair.
// ------------------------------------------------------------------

/// Scheduler identifiers (Fig. 5 methods).
enum class SchedKind : std::uint8_t { kDsp, kAalo, kTetrisSimDep, kTetrisNoDep };
const char* to_string(SchedKind k);
/// CLI token: "dsp", "aalo", "tetris-simdep" or "tetris-nodep". Tokens are
/// filesystem-safe and name per-scenario outputs (dsp_sweep scenario
/// names, event-log files), so their spelling must not change.
const char* to_token(SchedKind k);
/// Inverse of to_token; false when `s` names no scheduler.
bool parse_sched_kind(std::string_view s, SchedKind& out);

/// Preemption-policy identifiers (Fig. 6/7 methods); kNone = offline
/// scheduling only, as for the Fig. 5 scheduler baselines.
enum class PolicyKind : std::uint8_t {
  kDsp,
  kDspNoPp,
  kAmoeba,
  kNatjam,
  kSrpt,
  kNone,
};
const char* to_string(PolicyKind k);
/// CLI token: "dsp", "dsp-nopp", "amoeba", "natjam", "srpt" or "none"
/// (same contract as to_token(SchedKind)).
const char* to_token(PolicyKind k);
/// Inverse of to_token; false when `s` names no policy.
bool parse_policy_kind(std::string_view s, PolicyKind& out);

// ------------------------------------------------------------------
// Failure injection.
// ------------------------------------------------------------------

/// Injection window [0, kFailureHorizon) of a random failure plan.
inline constexpr SimTime kFailureHorizon = 40 * kHour;
/// Mean time to repair of a random outage, in minutes.
inline constexpr double kOutageMttrMinutes = 5.0;
/// Mean length of a random slowdown.
inline constexpr SimTime kStragglerMeanDuration = 10 * kMinute;
/// Speed factor of a straggling node.
inline constexpr double kStragglerFactor = 0.4;

/// Declarative failure/straggler injection (sim/failures.h plans).
struct FailureRecipe {
  enum class Kind : std::uint8_t { kNone, kOutages, kStragglers };
  Kind kind = Kind::kNone;
  /// Seed for the random plan; 0 derives one from the scenario seed.
  std::uint64_t seed = 0;
  /// kOutages: mean time between failures per node, in hours.
  double mtbf_hours = 4.0;
  /// kStragglers: mean gap between slowdowns per node.
  SimTime mean_gap = 2 * kHour;
};

/// Instantiates the recipe against `cluster`. `fallback_seed` is used when
/// the recipe does not pin its own plan seed.
FailurePlan make_failure_plan(const FailureRecipe& recipe,
                              const ClusterSpec& cluster,
                              std::uint64_t fallback_seed);

// ------------------------------------------------------------------
// The scenario.
// ------------------------------------------------------------------

/// One cell of an evaluation grid. Everything an Engine run needs, as
/// plain data: two specs with equal fields produce bit-identical runs.
struct ScenarioSpec {
  /// Stable identity: names per-scenario outputs (sweep JSON, event-log
  /// sinks) and orders merged reports. Keep it filesystem-safe.
  std::string name;
  ClusterRecipe cluster;
  /// Workload recipe (job_count, task_scale, locality fields, ...).
  WorkloadConfig workload;
  SchedKind sched = SchedKind::kDsp;
  PolicyKind policy = PolicyKind::kDsp;
  /// DSP's settings, read by the DSP scheduler and both DSP policies; the
  /// defaults are Table II, so a default spec reproduces the headline
  /// configuration exactly.
  DspParams dsp;
  EngineParams engine;  ///< Defaults already match the paper's §V timing.
  FailureRecipe failures;
  std::uint64_t seed = 42;  ///< Workload seed.
};

/// Builds the Scheduler/PreemptionPolicy pair for a spec. Abstract so the
/// sim layer needs no link to core/ or baselines/; scenarios/standard.h
/// provides the factory covering the paper's methods.
class ScenarioFactory {
 public:
  virtual ~ScenarioFactory() = default;
  virtual std::unique_ptr<Scheduler> make_scheduler(
      const ScenarioSpec& spec) const = 0;
  /// May return null (spec.policy == PolicyKind::kNone).
  virtual std::unique_ptr<PreemptionPolicy> make_policy(
      const ScenarioSpec& spec) const = 0;
};

/// Derives a per-scenario seed from a base seed and the scenario's name
/// (splitmix64 over an FNV-1a name hash). Stable across grid order and
/// thread count: the same (base, name) always yields the same seed.
std::uint64_t scenario_seed(std::uint64_t base, std::string_view name);

/// Runs one scenario to completion on a fresh Engine, with `event_log`
/// attached when it is non-null and with no recorder otherwise. Reads no
/// environment: DSP_EVENT_LOG is simulate()'s alone (core/dsp_system.h).
RunMetrics run_scenario(const ScenarioSpec& spec,
                        const ScenarioFactory& factory,
                        obs::EventLog* event_log = nullptr);

/// Grid-runner options. The grid reads no environment: a front end that
/// honours DSP_THREADS parses it and passes the count here.
struct GridOptions {
  /// Worker threads, used as given; 0 and 1 both run every scenario on
  /// the caller, one after another.
  unsigned threads = 1;
  /// When non-empty, each scenario streams its flight recorder to
  /// `<event_log_dir>/<name>.jsonl`. Empty = no recorder: the scenarios
  /// run unlogged.
  std::string event_log_dir;
};

/// What run_scenario_grid returns.
struct GridResults {
  /// One per spec, in grid order. A scenario whose event-log sink could
  /// not be opened does not run: its entry stays default.
  std::vector<RunMetrics> metrics;
  /// In grid order, the path of every event-log sink that could not be
  /// opened or whose close_sink() failed (a write failed, as on a full
  /// disk). Empty when event_log_dir is.
  std::vector<std::string> failed_event_logs;
};

/// Runs every spec of `grid`, fanned over parallel_for's workers, which
/// take the next unstarted scenario as they free up. Scenarios are dealt
/// largest first — descending workload.job_count × workload.task_scale,
/// ties in grid order — so a long one does not start last and run alone.
/// Each scenario gets its own Engine, workload, metrics registry and
/// (optional) event log, so runs are independent; results come back in
/// grid order. The per-scenario output is a pure function of the spec —
/// thread count and grid order change only the wall-clock fields of the
/// returned metrics. After the join the scenarios' registries merge into
/// the caller's current registry (obs/metrics.h) in grid order.
GridResults run_scenario_grid(const std::vector<ScenarioSpec>& grid,
                              const ScenarioFactory& factory,
                              const GridOptions& options = {});

}  // namespace dsp
