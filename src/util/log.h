// Leveled logging with zero cost when disabled.
//
// The simulator is deterministic, so debug-level event traces are the main
// debugging tool; keep them cheap to turn on (DSP_LOG=debug env var) and
// free when off.
#pragma once

#include <cstdio>
#include <string>

namespace dsp {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Short upper-case tag for a level ("DEBUG", "INFO", ...).
const char* to_string(LogLevel level);

namespace log_detail {
/// Current threshold; initialized from the DSP_LOG environment variable
/// (debug|info|warn|error|off), defaulting to warn.
LogLevel threshold();
void set_threshold(LogLevel level);
/// Formats one complete log line including the trailing newline:
///   "[dsp LEVEL +T.TTTs] message\n"
/// where T.TTT is `elapsed_s`, the monotonic seconds since logging
/// started. Split out from emit() so it is unit-testable.
std::string format_line(LogLevel level, double elapsed_s, const char* message);
/// Formats and writes one line to stderr with a single fwrite, so lines
/// from concurrent callers never interleave mid-line.
void emit(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
}  // namespace log_detail

/// True when messages at `level` would be emitted.
inline bool log_enabled(LogLevel level) { return level >= log_detail::threshold(); }

/// Overrides the threshold (tests use this to silence warnings).
inline void set_log_level(LogLevel level) { log_detail::set_threshold(level); }

#define DSP_LOG_AT(level, ...)                                   \
  do {                                                           \
    if (::dsp::log_enabled(level))                               \
      ::dsp::log_detail::emit(level, __VA_ARGS__);               \
  } while (0)

#define DSP_DEBUG(...) DSP_LOG_AT(::dsp::LogLevel::kDebug, __VA_ARGS__)
#define DSP_INFO(...) DSP_LOG_AT(::dsp::LogLevel::kInfo, __VA_ARGS__)
#define DSP_WARN(...) DSP_LOG_AT(::dsp::LogLevel::kWarn, __VA_ARGS__)
#define DSP_ERROR(...) DSP_LOG_AT(::dsp::LogLevel::kError, __VA_ARGS__)

/// Flushes std::cout and stdout, and returns true when every write to
/// them reached the file, pipe or terminal. Otherwise prints one line,
/// "<program>: cannot write standard output", on stderr and returns
/// false: a table written into a full disk must fail the run instead of
/// vanishing with exit status 0. Command-line mains call it last, before
/// returning success.
bool flush_stdout(const char* program);

}  // namespace dsp
