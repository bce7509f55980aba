// Environment-variable readers for the runtime knobs (DSP_THREADS,
// DSP_EVENT_LOG, ...). The bench settings DSP_SCALE, DSP_SEED and
// DSP_POINTS are parsed strictly by BenchEnv (bench/bench_common.h).
#pragma once

#include <cstdint>
#include <string>

namespace dsp {

/// Reads an environment integer that must be at least `min_value`
/// (the scenario grid's default worker count).
/// Unset returns `fallback` silently; a malformed value falls back to
/// `fallback` and a parsed value below `min_value` clamps to it — both
/// with a logged warning, so a typo'd DSP_THREADS=O2 or DSP_THREADS=-1
/// never degrades a grid silently.
std::int64_t env_int_min(const char* name, std::int64_t fallback,
                         std::int64_t min_value);

/// Reads an environment string; returns `fallback` when unset.
std::string env_string(const char* name, const std::string& fallback);

}  // namespace dsp
