#include "sim/scenario.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace dsp {
namespace {

/// One row per enum value: the CLI token to_token returns and the parser
/// accepts.
template <typename Kind>
struct TokenRow {
  Kind kind;
  const char* token;
};

constexpr TokenRow<SchedKind> kSchedTokens[] = {
    {SchedKind::kDsp, "dsp"},
    {SchedKind::kAalo, "aalo"},
    {SchedKind::kTetrisSimDep, "tetris-simdep"},
    {SchedKind::kTetrisNoDep, "tetris-nodep"},
};

constexpr TokenRow<PolicyKind> kPolicyTokens[] = {
    {PolicyKind::kDsp, "dsp"},       {PolicyKind::kDspNoPp, "dsp-nopp"},
    {PolicyKind::kAmoeba, "amoeba"}, {PolicyKind::kNatjam, "natjam"},
    {PolicyKind::kSrpt, "srpt"},     {PolicyKind::kNone, "none"},
};

template <typename Kind, std::size_t N>
const char* token_of(const TokenRow<Kind> (&table)[N], Kind k) {
  for (const TokenRow<Kind>& row : table)
    if (row.kind == k) return row.token;
  return "?";
}

template <typename Kind, std::size_t N>
bool parse_token(const TokenRow<Kind> (&table)[N], std::string_view s,
                 Kind& out) {
  for (const TokenRow<Kind>& row : table) {
    if (s == row.token) {
      out = row.kind;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* to_string(ClusterProfile p) {
  switch (p) {
    case ClusterProfile::kRealCluster:
      return "real";
    case ClusterProfile::kEc2:
      return "ec2";
    case ClusterProfile::kUniform:
      return "uniform";
  }
  return "?";
}

bool parse_cluster_profile(std::string_view s, ClusterProfile& out) {
  if (s == "real" || s == "real-cluster") {
    out = ClusterProfile::kRealCluster;
  } else if (s == "ec2") {
    out = ClusterProfile::kEc2;
  } else if (s == "uniform") {
    out = ClusterProfile::kUniform;
  } else {
    return false;
  }
  return true;
}

ClusterSpec make_cluster(const ClusterRecipe& recipe) {
  switch (recipe.profile) {
    case ClusterProfile::kRealCluster:
      return ClusterSpec::real_cluster(recipe.nodes == 0 ? 50 : recipe.nodes);
    case ClusterProfile::kEc2:
      return ClusterSpec::ec2(recipe.nodes == 0 ? 30 : recipe.nodes);
    case ClusterProfile::kUniform:
      return ClusterSpec::uniform(recipe.nodes == 0 ? 8 : recipe.nodes,
                                  recipe.cpu_mips, recipe.mem_gb,
                                  recipe.slots);
  }
  return ClusterSpec::real_cluster();
}

const char* to_string(SchedKind k) {
  // Display names are load-bearing: bench series and published figure
  // labels key on them.
  switch (k) {
    case SchedKind::kDsp:
      return "DSP";
    case SchedKind::kAalo:
      return "Aalo";
    case SchedKind::kTetrisSimDep:
      return "TetrisW/SimDep";
    case SchedKind::kTetrisNoDep:
      return "TetrisW/oDep";
  }
  return "?";
}

const char* to_token(SchedKind k) { return token_of(kSchedTokens, k); }

bool parse_sched_kind(std::string_view s, SchedKind& out) {
  return parse_token(kSchedTokens, s, out);
}

const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kDsp:
      return "DSP";
    case PolicyKind::kDspNoPp:
      return "DSPW/oPP";
    case PolicyKind::kAmoeba:
      return "Amoeba";
    case PolicyKind::kNatjam:
      return "Natjam";
    case PolicyKind::kSrpt:
      return "SRPT";
    case PolicyKind::kNone:
      return "none";
  }
  return "?";
}

const char* to_token(PolicyKind k) { return token_of(kPolicyTokens, k); }

bool parse_policy_kind(std::string_view s, PolicyKind& out) {
  return parse_token(kPolicyTokens, s, out);
}

FailurePlan make_failure_plan(const FailureRecipe& recipe,
                              const ClusterSpec& cluster,
                              std::uint64_t fallback_seed) {
  const std::uint64_t seed = recipe.seed != 0 ? recipe.seed : fallback_seed;
  switch (recipe.kind) {
    case FailureRecipe::Kind::kNone:
      return {};
    case FailureRecipe::Kind::kOutages:
      return FailurePlan::random_outages(cluster, kFailureHorizon,
                                         recipe.mtbf_hours,
                                         kOutageMttrMinutes, seed);
    case FailureRecipe::Kind::kStragglers:
      return FailurePlan::random_stragglers(cluster, kFailureHorizon,
                                            recipe.mean_gap,
                                            kStragglerMeanDuration,
                                            kStragglerFactor, seed);
  }
  return {};
}

std::uint64_t scenario_seed(std::uint64_t base, std::string_view name) {
  // FNV-1a over the name, mixed with the base through one splitmix64
  // round. Depends only on (base, name): re-ordering the grid or changing
  // the thread count cannot move a scenario's seed.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t z = base + h + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

RunMetrics run_scenario(const ScenarioSpec& spec,
                        const ScenarioFactory& factory,
                        obs::EventLog* event_log) {
  ClusterSpec cluster = make_cluster(spec.cluster);
  JobSet jobs = WorkloadGenerator(spec.workload, spec.seed).generate();

  std::unique_ptr<Scheduler> scheduler = factory.make_scheduler(spec);
  assert(scheduler != nullptr);
  std::unique_ptr<PreemptionPolicy> policy = factory.make_policy(spec);

  Engine engine(std::move(cluster), std::move(jobs), *scheduler, policy.get(),
                spec.engine);
  engine.set_event_log(event_log);
  if (spec.failures.kind != FailureRecipe::Kind::kNone) {
    engine.set_failure_plan(
        make_failure_plan(spec.failures, engine.cluster(), spec.seed));
  }
  return engine.run();
}

GridResults run_scenario_grid(const std::vector<ScenarioSpec>& grid,
                              const ScenarioFactory& factory,
                              const GridOptions& options) {
  // Deal order: largest workload first, ties in grid order. Benches list
  // their cells by job count ascending, so in list order the longest
  // cells would start last and finish alone.
  std::vector<std::size_t> order(grid.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto size = [&grid](std::size_t i) {
    return static_cast<double>(grid[i].workload.job_count) *
           grid[i].workload.task_scale;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return size(a) > size(b);
                   });

  GridResults out;
  out.metrics.resize(grid.size());
  // Each cell records into its own registry; after the join they merge
  // into the caller's in grid order, so the caller sees the same totals
  // at any thread count.
  std::vector<obs::MetricsRegistry> registries(grid.size());
  const auto log_path = [&](std::size_t i) {
    return options.event_log_dir + "/" + grid[i].name + ".jsonl";
  };
  std::vector<std::uint8_t> log_failed(grid.size(), 0);
  parallel_for(grid.size(), options.threads, [&](std::size_t k) {
    const std::size_t i = order[k];
    const obs::RegistryScope scope(registries[i]);
    if (options.event_log_dir.empty()) {
      out.metrics[i] = run_scenario(grid[i], factory);
      return;
    }
    // One private recorder per scenario. A cell asked for a stream it
    // cannot write fails instead of running unrecorded; open_sink and
    // close_sink log the reason.
    obs::EventLog log;
    if (!log.open_sink(log_path(i))) {
      log_failed[i] = 1;
      return;
    }
    out.metrics[i] = run_scenario(grid[i], factory, &log);
    if (!log.close_sink()) log_failed[i] = 1;
  });
  obs::MetricsRegistry& caller = obs::default_registry();
  for (const obs::MetricsRegistry& cell : registries) caller.merge(cell);
  for (std::size_t i = 0; i < grid.size(); ++i)
    if (log_failed[i]) out.failed_event_logs.push_back(log_path(i));
  return out;
}

}  // namespace dsp
