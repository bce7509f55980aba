// Whole-token numeric parsing for command-line and environment values.
//
// strtoull alone skips leading blanks, stops at trailing garbage and wraps
// a leading '-' into a huge value, and strtod accepts "inf" and "nan". The
// parsers here accept a token only when all of it is the number asked for,
// so callers can reject anything else loudly instead of running with a
// silently substituted value.
#pragma once

#include <string>

namespace dsp {

/// Parses an unsigned decimal integer: a leading digit, no sign, no
/// blanks, the whole token consumed, no overflow. False otherwise.
bool parse_count(const std::string& token, unsigned long long& out);

/// Parses a finite number > 0 with no leading blank and the whole token
/// consumed. False otherwise.
bool parse_positive(const std::string& token, double& out);

}  // namespace dsp
