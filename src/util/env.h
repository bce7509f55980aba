// Environment-variable reader. The library reads one knob through it,
// DSP_EVENT_LOG (obs::EventLog::from_env, applied by simulate() only);
// the bench settings DSP_SCALE, DSP_SEED, DSP_POINTS and DSP_THREADS are
// parsed strictly by BenchEnv (bench/bench_common.h), and dsp_sweep parses
// DSP_THREADS the same way.
#pragma once

#include <string>

namespace dsp {

/// Reads an environment string; returns `fallback` when unset or empty.
std::string env_string(const char* name, const std::string& fallback);

}  // namespace dsp
