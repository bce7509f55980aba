// Source-level lint of the repository's own C++ — the dsp-tidy half of
// the static rule engine (see rules.h families D* and C*).
//
// The engine promises bit-identical schedules, priorities and preemption
// decisions for a given input, also when the scenario grid runs many
// simulations at once. determinism_test and the golden stream digests
// check that promise on sample runs; srclint enforces the source
// disciplines that make it hold by construction: no ambient randomness or wall clocks (D000-D002,
// D005), no hash-order iteration or stray threads in the hot path
// (D003-D004), and the concurrency/robustness conventions the codebase
// settled on — guarded globals, no I/O under a lock, RAII locking, no
// raw new/delete, asserted hot-path indexing, logging through util/log
// (C000-C005).
//
// This is a regex/line-level scanner, not a compiler plugin: comments,
// string literals and preprocessor lines are stripped before matching,
// so rule text in doc comments or log format strings never fires. A
// deliberate exception is silenced inline with
//     do_the_thing();  // dsp-tidy: allow(C005)
// which suppresses the named rule(s) on that line only.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.h"

namespace dsp::analysis {

/// Scans one file's contents. `path` is used for the finding subjects
/// ("src/foo.cpp:42") and for rule scoping: D003/C003 apply only under
/// src/core and src/sim (plus out-of-tree fixtures), and per-rule
/// whitelists exempt the sanctioned homes of an operation (util/time for
/// clocks, util/thread_pool for threads, util/log for console I/O).
void scan_source(std::string_view path, std::string_view text, Report& report);

/// Reads `path` from disk and scans it. Returns false (and sets `error`
/// when non-null) if the file cannot be read; the report is unchanged.
bool scan_source_file(const std::string& path, Report& report,
                      std::string* error = nullptr);

/// Expands files and directories into the list of C++ sources to scan
/// (.h/.hh/.hpp/.cc/.cpp/.cxx; directories recurse). The result is
/// sorted so scan order — and therefore diagnostic order — is
/// deterministic. Returns false and sets `error` when a path does not
/// exist or cannot be traversed.
bool collect_sources(const std::vector<std::string>& paths,
                     std::vector<std::string>& out,
                     std::string* error = nullptr);

}  // namespace dsp::analysis
