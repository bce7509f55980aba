// Rule catalog of the dsp-analyze / dsp-tidy static rule engines.
//
// Five rule families:
//   W* — workload/DAG lint (pre-run): structural validity plus
//        critical-path feasibility lower bounds.
//   S* — schedule constraint check: a solver-produced placement is
//        verified directly against the paper's §III ILP constraints
//        (4)-(11) without running the engine.
//   P* — preemption audit replay: every recorded Algorithm-1 decision is
//        re-derived statically — C1/C2 and the P-tilde > rho gate must
//        have held, and priorities must respect the Formula 12/13
//        structure (ancestors aggregate descendants, Fig. 3).
//   D* — source-level determinism lint (dsp_tidy, srclint.h): rejects
//        nondeterminism at the source level — ambient randomness, wall
//        clocks, hash-order iteration, stray threads — because the
//        bit-identical priorities/preemption decisions the engine
//        promises for a given input, at any scenario-grid thread count,
//        must hold by construction, not just under determinism_test.
//   C* — source-level concurrency/robustness lint (dsp_tidy): lock
//        discipline (unguarded globals, I/O under a lock, manual
//        lock/unlock), raw new/delete, unchecked hot-path indexing, and
//        console output bypassing util/log.
// IDs are stable: tools, CI filters and fixtures reference them by name.
#pragma once

#include <span>
#include <string_view>

#include "analysis/diagnostics.h"

namespace dsp::analysis {

/// Static description of one rule.
struct RuleInfo {
  const char* id;       ///< Stable ID ("W001").
  const char* name;     ///< Slug ("dag-cycle").
  Severity severity;    ///< Default severity of findings.
  const char* summary;  ///< One-line description (shown by `dsp_analyze --rules help`).
  const char* paper_ref;  ///< Paper constraint/formula/algorithm it enforces.
};

/// Every rule, ordered by family then number.
std::span<const RuleInfo> rule_catalog();

/// Catalog lookup; nullptr for unknown IDs.
const RuleInfo* find_rule(std::string_view id);

}  // namespace dsp::analysis
