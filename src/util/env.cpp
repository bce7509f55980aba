#include "util/env.h"

#include <cstdlib>

#include "util/log.h"

namespace dsp {

std::int64_t env_int_min(const char* name, std::int64_t fallback,
                         std::int64_t min_value) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (!end || *end != '\0') {
    DSP_WARN("%s=\"%s\" is not an integer; using %lld", name, v,
             static_cast<long long>(fallback));
    return fallback;
  }
  if (parsed < min_value) {
    DSP_WARN("%s=%lld is below the minimum %lld; clamping", name,
             static_cast<long long>(parsed),
             static_cast<long long>(min_value));
    return min_value;
  }
  return parsed;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::string{v} : fallback;
}

}  // namespace dsp
