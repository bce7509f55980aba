#include "analysis/diagnostics.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "analysis/rules.h"

namespace dsp::analysis {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

namespace {

/// Escapes a string for embedding in a JSON literal.
void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

void Report::add(std::string_view rule, std::string subject,
                 std::string message) {
  const RuleInfo* info = find_rule(rule);
  add(rule, info ? info->severity : Severity::kError, std::move(subject),
      std::move(message));
}

void Report::add(std::string_view rule, Severity severity, std::string subject,
                 std::string message) {
  if (!accepts(rule)) return;
  diagnostics_.push_back(
      {std::string(rule), severity, std::move(subject), std::move(message)});
}

void Report::set_rule_filter(std::vector<std::string> rules) {
  rule_filter_ = std::move(rules);
}

bool Report::accepts(std::string_view rule) const {
  if (rule_filter_.empty()) return true;
  return std::find(rule_filter_.begin(), rule_filter_.end(), rule) !=
         rule_filter_.end();
}

std::size_t Report::count(Severity s) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics_)
    if (d.severity == s) ++n;
  return n;
}

void Report::print_text(std::ostream& out) const {
  for (const Diagnostic& d : diagnostics_) {
    const RuleInfo* info = find_rule(d.rule);
    out << d.rule << ' ' << (info ? info->name : "?") << ' '
        << to_string(d.severity) << ' ' << d.subject << ": " << d.message
        << '\n';
  }
  out << (diagnostics_.empty() ? "clean" : "found") << ": "
      << count(Severity::kError) << " error(s), " << count(Severity::kWarning)
      << " warning(s), " << count(Severity::kInfo) << " note(s)\n";
}

void Report::write_json(std::ostream& out, std::string_view input_kind,
                        std::string_view input_path) const {
  out << "{\n  \"analyzer\": \"dsp-analyze\",\n  \"input\": {\"kind\": ";
  write_json_string(out, input_kind);
  out << ", \"path\": ";
  write_json_string(out, input_path);
  out << "},\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    const RuleInfo* info = find_rule(d.rule);
    out << (i ? ",\n    " : "\n    ") << "{\"rule\": ";
    write_json_string(out, d.rule);
    out << ", \"name\": ";
    write_json_string(out, info ? info->name : "?");
    out << ", \"severity\": ";
    write_json_string(out, to_string(d.severity));
    out << ", \"subject\": ";
    write_json_string(out, d.subject);
    out << ", \"message\": ";
    write_json_string(out, d.message);
    out << '}';
  }
  out << (diagnostics_.empty() ? "]" : "\n  ]");
  out << ",\n  \"summary\": {\"error\": " << count(Severity::kError)
      << ", \"warning\": " << count(Severity::kWarning)
      << ", \"info\": " << count(Severity::kInfo) << "}\n}\n";
}

}  // namespace dsp::analysis
