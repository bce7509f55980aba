#include "util/env.h"

#include <cstdlib>

namespace dsp {

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::string{v} : fallback;
}

}  // namespace dsp
