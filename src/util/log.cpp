#include "util/log.h"

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <iostream>

namespace dsp {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace dsp

namespace dsp::log_detail {
namespace {

LogLevel parse_level(const char* s) {
  if (!s) return LogLevel::kWarn;
  if (std::strcmp(s, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(s, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(s, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(s, "error") == 0) return LogLevel::kError;
  if (std::strcmp(s, "off") == 0) return LogLevel::kOff;
  return LogLevel::kWarn;
}

std::atomic<LogLevel>& threshold_storage() {
  static std::atomic<LogLevel> level{parse_level(std::getenv("DSP_LOG"))};
  return level;
}

/// Monotonic seconds since the first log call (the process logging epoch).
double elapsed_seconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

}  // namespace

LogLevel threshold() { return threshold_storage().load(std::memory_order_relaxed); }

void set_threshold(LogLevel level) {
  threshold_storage().store(level, std::memory_order_relaxed);
}

std::string format_line(LogLevel level, double elapsed_s,
                        const char* message) {
  char prefix[64];
  std::snprintf(prefix, sizeof prefix, "[dsp %s +%.3fs] ", to_string(level),
                elapsed_s);
  std::string line = prefix;
  line += message;
  line += '\n';
  return line;
}

void emit(LogLevel level, const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  // One fwrite per line: stdio locks the stream per call, so concurrent
  // callers cannot interleave mid-line.
  const std::string line = format_line(level, elapsed_seconds(), buf);
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace dsp::log_detail

namespace dsp {

bool flush_stdout(const char* program) {
  // Both streams are flushed even when the first fails; either failure,
  // now or in an earlier buffered write, fails the check.
  const bool cout_ok = static_cast<bool>(std::cout.flush());
  const bool stdio_ok = std::fflush(stdout) == 0 && std::ferror(stdout) == 0;
  if (cout_ok && stdio_ok) return true;
  std::fprintf(stderr, "%s: cannot write standard output\n", program);
  return false;
}

}  // namespace dsp
