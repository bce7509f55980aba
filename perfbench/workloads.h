// The benchmark's workloads, built from the seed alone.
//
// Each simulation workload is a list of ScenarioSpecs run one after
// another; ilp_small is a list of small scheduling instances solved
// exactly and by relax-and-round. BENCHMARK.json and README.md give why
// each workload was chosen and which layer it loads.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/ilp_model.h"
#include "sim/scenario.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Simulation workloads: the scenarios, in run order.
  std::vector<dsp::ScenarioSpec> scenarios;
  /// ilp_small: true; its instances come from make_ilp_instances, which
  /// the benchmark times as the workload's set-up.
  bool ilp = false;
};

/// Builds workload `name` for `seed`; false when no workload has that name.
bool make_workload(std::string_view name, std::uint64_t seed, Workload& out);

/// The ilp_small instances for `seed`: ablation_ilp's recipe of random
/// problems with chain-like dependencies, at 4 tasks on 2 machines.
std::vector<dsp::IlpProblem> make_ilp_instances(std::uint64_t seed);

/// Whether `spec` runs a DSP preemption policy, which must make no
/// dependency disorders (the paper's Fig. 6/7(a) invariant).
bool is_dsp_policy(const dsp::ScenarioSpec& spec);

}  // namespace perfbench
