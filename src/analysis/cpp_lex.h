// Lexical front end of srclint's line rules.
//
// The scanner works on a stripped view of a C++ file: comments,
// string/char literal bodies and raw strings are blanked to spaces (so
// rule text inside doc comments or format strings never matches),
// preprocessor lines are marked, and the comment text of each line is
// kept for `dsp-tidy: allow(ID)` suppression parsing.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dsp::analysis {

/// One source line after lexical stripping.
struct Line {
  std::string code;     ///< Source with comments and literal bodies blanked.
  std::string comment;  ///< Comment text of the line (for allow() parsing).
  bool preprocessor = false;  ///< '#' directive or its '\'-continuation.
};

/// Splits `text` into lines, blanking comments, string/char literals
/// (including raw strings) and marking preprocessor lines. Blanked bytes
/// become spaces so column positions and brace counts stay meaningful.
std::vector<Line> lex_lines(std::string_view text);

/// Parses "dsp-tidy: allow(C005)" / "allow(C001, C004)" from a line's
/// comment text into the set of rule IDs suppressed on that line.
std::vector<std::string> parse_allows(const std::string& comment);

/// True when `id` is in the allow list.
bool allowed(const std::vector<std::string>& allows, std::string_view id);

/// Backslashes become forward slashes so path scoping is portable.
std::string normalize_path(std::string_view path);

/// True when `pat` occurs in `path` starting at a component boundary.
/// A pattern ending in '.' is a file-stem prefix ("util/thread_pool."
/// matches both the .h and the .cpp); otherwise the match must also end
/// at a component boundary, so "src" does not match "srclint".
bool path_has(const std::string& path, std::string_view pat);

}  // namespace dsp::analysis
