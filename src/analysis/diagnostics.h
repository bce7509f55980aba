// Diagnostic model of the dsp-analyze static rule engine.
//
// Every rule violation becomes one Diagnostic: a stable rule ID (W* =
// workload lint, S* = schedule constraint check, P* = preemption audit
// replay — see rules.h for the catalog), a severity, the subject it is
// about ("job 3 task 7", "decision 412") and a human-readable explanation.
// Passes append into a shared Report, which renders either compiler-style
// text lines or the machine-readable JSON consumed by tools/json_check and
// CI.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace dsp::analysis {

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

const char* to_string(Severity s);

/// One finding of one rule.
struct Diagnostic {
  std::string rule;     ///< Stable rule ID, e.g. "W001".
  Severity severity = Severity::kError;
  std::string subject;  ///< What the finding is about ("job 3 task 7").
  std::string message;  ///< Human-readable explanation.
};

/// Accumulates the diagnostics of one analysis run.
class Report {
 public:
  /// Appends a finding with the rule's catalog severity (rules.h).
  /// Unknown rule IDs default to kError. Dropped silently when a rule
  /// filter is set and does not contain `rule`.
  void add(std::string_view rule, std::string subject, std::string message);

  /// Appends a finding with an explicit severity (same filter rules).
  void add(std::string_view rule, Severity severity, std::string subject,
           std::string message);

  /// Restricts the report to the given rule IDs; diagnostics for other
  /// rules are discarded at add() time. An empty list (the default)
  /// accepts every rule.
  void set_rule_filter(std::vector<std::string> rules);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  std::size_t count(Severity s) const;
  bool has_errors() const { return count(Severity::kError) > 0; }
  bool empty() const { return diagnostics_.empty(); }

  /// Compiler-style text, one line per diagnostic:
  ///   W003 deadline-infeasible-by-critical-path error job 2: ...
  /// followed by a one-line summary.
  void print_text(std::ostream& out) const;

  /// Machine-readable JSON:
  ///   {"analyzer": "dsp-analyze",
  ///    "input": {"kind": ..., "path": ...},
  ///    "diagnostics": [{"rule", "name", "severity", "subject", "message"}],
  ///    "summary": {"error": n, "warning": n, "info": n}}
  void write_json(std::ostream& out, std::string_view input_kind,
                  std::string_view input_path) const;

 private:
  bool accepts(std::string_view rule) const;

  std::vector<Diagnostic> diagnostics_;
  std::vector<std::string> rule_filter_;
};

}  // namespace dsp::analysis
