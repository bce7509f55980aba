#include "analysis/cpp_lex.h"

#include <algorithm>
#include <cctype>

namespace dsp::analysis {

std::string normalize_path(std::string_view path) {
  std::string out(path);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

bool path_has(const std::string& path, std::string_view pat) {
  for (std::size_t pos = path.find(pat); pos != std::string::npos;
       pos = path.find(pat, pos + 1)) {
    if (pos != 0 && path[pos - 1] != '/') continue;
    const std::size_t end = pos + pat.size();
    if (pat.back() == '.' || end == path.size() || path[end] == '/')
      return true;
  }
  return false;
}

std::vector<Line> lex_lines(std::string_view text) {
  enum class State { kCode, kString, kChar, kRawString, kLineComment, kBlockComment };
  std::vector<Line> lines(1);
  State state = State::kCode;
  std::string raw_delim;       // the )delim" terminator of a raw string
  bool continuation = false;   // previous line ended a directive with '\'
  bool seen_code_on_line = false;

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    Line& line = lines.back();
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      const std::string& code = line.code;
      continuation = line.preprocessor && !code.empty() &&
                     code.find_last_not_of(" \t") != std::string::npos &&
                     code[code.find_last_not_of(" \t")] == '\\';
      lines.emplace_back();
      seen_code_on_line = false;
      continue;
    }
    switch (state) {
      case State::kCode: {
        if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
          state = State::kLineComment;
          line.code += "  ";
          ++i;
          break;
        }
        if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
          state = State::kBlockComment;
          line.code += "  ";
          ++i;
          break;
        }
        if (c == '"') {
          // R"delim( ... )delim" — capture the closing sentinel.
          if (!line.code.empty() && line.code.back() == 'R' &&
              (line.code.size() < 2 ||
               !(std::isalnum(static_cast<unsigned char>(
                     line.code[line.code.size() - 2])) ||
                 line.code[line.code.size() - 2] == '_'))) {
            raw_delim = ')';
            std::size_t j = i + 1;
            while (j < text.size() && text[j] != '(') raw_delim += text[j++];
            raw_delim += '"';
            state = State::kRawString;
            line.code += '"';
            break;
          }
          state = State::kString;
          line.code += '"';
          break;
        }
        if (c == '\'') {
          // Skip digit separators (1'000'000): preceded by an alnum.
          if (!line.code.empty() &&
              std::isalnum(static_cast<unsigned char>(line.code.back()))) {
            line.code += ' ';
            break;
          }
          state = State::kChar;
          line.code += '\'';
          break;
        }
        if (!seen_code_on_line && !std::isspace(static_cast<unsigned char>(c))) {
          seen_code_on_line = true;
          line.preprocessor = continuation || c == '#';
        }
        line.code += c;
        break;
      }
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && i + 1 < text.size() && text[i + 1] != '\n') {
          line.code += "  ";
          ++i;
        } else if (c == quote) {
          state = State::kCode;
          line.code += quote;
        } else {
          line.code += ' ';
        }
        break;
      }
      case State::kRawString: {
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          line.code += '"';
          state = State::kCode;
        } else {
          line.code += ' ';
        }
        break;
      }
      case State::kLineComment: {
        line.comment += c;
        line.code += ' ';
        break;
      }
      case State::kBlockComment: {
        if (c == '*' && i + 1 < text.size() && text[i + 1] == '/') {
          state = State::kCode;
          line.code += "  ";
          ++i;
        } else {
          line.comment += c;
          line.code += ' ';
        }
        break;
      }
    }
  }
  return lines;
}

std::vector<std::string> parse_allows(const std::string& comment) {
  std::vector<std::string> ids;
  static const std::string kTag = "dsp-tidy: allow(";
  const std::size_t tag = comment.find(kTag);
  if (tag == std::string::npos) return ids;
  std::size_t pos = tag + kTag.size();
  std::string id;
  for (; pos < comment.size() && comment[pos] != ')'; ++pos) {
    const char c = comment[pos];
    if (c == ',') {
      if (!id.empty()) ids.push_back(std::move(id));
      id.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      id += c;
    }
  }
  if (!id.empty()) ids.push_back(std::move(id));
  return ids;
}

bool allowed(const std::vector<std::string>& allows, std::string_view id) {
  return std::find(allows.begin(), allows.end(), id) != allows.end();
}

}  // namespace dsp::analysis
