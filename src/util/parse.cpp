#include "util/parse.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace dsp {

bool parse_count(const std::string& token, unsigned long long& out) {
  if (token.empty() || !std::isdigit(static_cast<unsigned char>(token[0])))
    return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(token.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

bool parse_positive(const std::string& token, double& out) {
  if (token.empty() || std::isspace(static_cast<unsigned char>(token[0])))
    return false;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return *end == '\0' && std::isfinite(out) && out > 0.0;
}

}  // namespace dsp
