// Environment-variable knobs for the benchmark harness.
//
// Benches scale the paper's workloads with DSP_SCALE and select seeds with
// DSP_SEED so the full suite can be re-run at paper scale when time allows.
#pragma once

#include <cstdint>
#include <string>

namespace dsp {

/// Reads an environment double; returns `fallback` when unset or malformed.
double env_double(const char* name, double fallback);

/// Reads an environment integer; returns `fallback` when unset or malformed.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Reads an environment integer that must be at least `min_value`
/// (the scenario grid's default worker count, the event ring capacity).
/// Unset returns `fallback` silently; a malformed value falls back to
/// `fallback` and a parsed value below `min_value` clamps to it — both
/// with a logged warning, so a typo'd DSP_THREADS=O2 or DSP_THREADS=-1
/// never degrades a grid silently.
std::int64_t env_int_min(const char* name, std::int64_t fallback,
                         std::int64_t min_value);

/// Reads an environment string; returns `fallback` when unset.
std::string env_string(const char* name, const std::string& fallback);

}  // namespace dsp
