#include "analysis/srclint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "analysis/cpp_lex.h"

namespace dsp::analysis {
namespace {

/// D003/C003 police the deterministic hot path: src/core and src/sim.
/// Out-of-tree files (test fixtures) are also in scope so the seeded
/// violations under tests/fixtures/srclint fire.
bool in_hot_scope(const std::string& path) {
  return path_has(path, "src/core") || path_has(path, "src/sim") ||
         !path_has(path, "src");
}

/// Compacts a regex match for display: internal whitespace runs collapse
/// and edges are trimmed, so "fopen  (" renders as "fopen(".
std::string strip_ws(const std::string& s) {
  std::string out;
  for (const char c : s)
    if (!std::isspace(static_cast<unsigned char>(c))) out += c;
  return out;
}

// ---------------------------------------------------------------------------
// Rule patterns
// ---------------------------------------------------------------------------

enum class Scope { kAll, kHot };

struct SimpleRule {
  const char* id;
  Scope scope;
  /// Path-stem whitelist (path_has patterns); the sanctioned home of the
  /// flagged operation.
  std::vector<const char*> exempt;
  std::regex re;
  const char* what;
};

const std::vector<SimpleRule>& simple_rules() {
  static const std::vector<SimpleRule> kRules = [] {
    std::vector<SimpleRule> r;
    r.push_back({"D000", Scope::kAll, {},
                 std::regex(R"(\b(srand|srandom|rand_r|drand48|lrand48|mrand48|rand|random)\s*\()"),
                 "libc random source; draw from util/rng's seeded engine"});
    r.push_back({"D001", Scope::kAll, {},
                 std::regex(R"(\bstd\s*::\s*random_device\b)"),
                 "std::random_device is OS entropy; runs stop replaying from a seed"});
    r.push_back({"D002", Scope::kAll, {"util/time.", "util/log."},
                 std::regex(R"(\btime\s*\(|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\blocaltime(_r)?\s*\(|\bgmtime(_r)?\s*\(|\bsystem_clock\b|\bhigh_resolution_clock\b)"),
                 "wall-clock read; simulation logic must use SimTime"});
    r.push_back({"D003", Scope::kHot, {},
                 std::regex(R"(\bunordered_(map|set|multimap|multiset)\b)"),
                 "hash-order container in the deterministic hot path; use std::map or a sorted vector"});
    r.push_back({"D004", Scope::kAll, {"util/thread_pool."},
                 std::regex(R"(\bstd\s*::\s*(thread|jthread|async)\b)"),
                 "thread spawned outside util/thread_pool's deterministic fan-out"});
    r.push_back({"D005", Scope::kAll, {},
                 std::regex(R"(\b(mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux(24|48)(_base)?|knuth_b|(uniform_int|uniform_real|normal|bernoulli|poisson|exponential|geometric|binomial|discrete)_distribution)\b)"),
                 "<random> output is not bit-exact across standard libraries; use util/rng"});
    r.push_back({"C002", Scope::kAll, {},
                 std::regex(R"(\bnew\s+[A-Za-z_(:]|\bdelete\s*\[\s*\]|\bdelete\s+[A-Za-z_*(])"),
                 "raw new/delete; use std::make_unique or a container"});
    // tools/ and bench/ are sanctioned console-I/O surfaces: CLIs and
    // benchmark drivers whose stdout IS the interface. Library code under
    // src/ stays restricted to util/log.
    r.push_back({"C004", Scope::kAll, {"util/log.", "tools", "bench"},
                 std::regex(R"(\b(printf|fprintf|puts|fputs)\s*\(|\bstd\s*::\s*(cout|cerr)\b)"),
                 "console I/O outside util/log; use DSP_LOG so levels and line atomicity hold"});
    r.push_back({"C005", Scope::kAll, {},
                 std::regex(R"(\.\s*(unlock|lock)\s*\(\s*\))"),
                 "manual lock()/unlock(); hold locks via std::scoped_lock"});
    return r;
  }();
  return kRules;
}

// C000: mutable file-scope state. Namespace bodies are not indented in
// this codebase, so a column-0 `static` declaration is file-scope; it is
// fine when immutable (const/constexpr), atomic, or per-thread
// (thread_local). Lines containing '(' are function
// definitions/declarations, not objects.
const std::regex& c000_re() {
  static const std::regex re(R"(^static\s+)");
  return re;
}

bool c000_exempt(const std::string& code) {
  if (code.find('(') != std::string::npos) return true;
  for (const char* ok : {"constexpr", "const ", "atomic", "thread_local"})
    if (code.find(ok) != std::string::npos) return true;
  return false;
}

// C001: blocking I/O while a lock is held.
const std::regex& lock_decl_re() {
  static const std::regex re(
      R"(\b(scoped_lock|lock_guard|unique_lock|shared_lock)\s*(<[^;>]*>)?\s+[A-Za-z_])");
  return re;
}

const std::regex& io_call_re() {
  static const std::regex re(
      R"(\b(printf|fprintf|puts|fputs|fwrite|fread|fopen|fclose|fflush|getline)\s*\(|\bstd\s*::\s*(cout|cerr|ifstream|ofstream|fstream)\b|\bDSP_(DEBUG|INFO|WARN|ERROR|LOG_AT)\s*\(|\blog_detail\s*::\s*emit\b)");
  return re;
}

// C003: hot-path accessor returning an unchecked subscript. A bounds
// assert (or .at()/.size() check) on the same line or within the two
// preceding lines counts as the guard — the prio_at discipline.
const std::regex& ret_index_re() {
  static const std::regex re(R"(\breturn\s+[A-Za-z_]\w*_\s*\[)");
  return re;
}

const std::regex& index_guard_re() {
  static const std::regex re(R"(\bassert\s*\(|\.at\s*\(|\.size\s*\()");
  return re;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

void scan_source(std::string_view path, std::string_view text,
                 Report& report) {
  const std::vector<Line> lines = lex_lines(text);
  const std::string npath = normalize_path(path);
  const bool hot = in_hot_scope(npath);
  int depth = 0;                 // brace nesting across the file
  std::vector<int> lock_depths;  // depth at which each active RAII lock lives

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Line& line = lines[i];
    const std::string subject = npath + ":" + std::to_string(i + 1);
    const std::vector<std::string> allows = parse_allows(line.comment);
    std::smatch m;

    if (!line.preprocessor) {
      for (const SimpleRule& rule : simple_rules()) {
        if (rule.scope == Scope::kHot && !hot) continue;
        if (std::any_of(rule.exempt.begin(), rule.exempt.end(),
                        [&](const char* p) { return path_has(npath, p); }))
          continue;
        if (allowed(allows, rule.id)) continue;
        if (std::regex_search(line.code, m, rule.re))
          report.add(rule.id, subject,
                     std::string(rule.what) + " (matched `" +
                         strip_ws(m.str()) + "`)");
      }

      if (!allowed(allows, "C000") &&
          std::regex_search(line.code, c000_re()) && !c000_exempt(line.code))
        report.add("C000", subject,
                   "mutable file-scope state without atomic, thread_local or "
                   "const");

      if (hot && !allowed(allows, "C003") &&
          std::regex_search(line.code, m, ret_index_re())) {
        bool guarded = false;
        for (std::size_t j = i >= 2 ? i - 2 : 0; j <= i && !guarded; ++j)
          guarded = std::regex_search(lines[j].code, index_guard_re());
        if (!guarded)
          report.add("C003", subject,
                     "unchecked subscript return (`" + strip_ws(m.str()) +
                         "...]`) with no bounds assert in reach");
      }

      // C001 bookkeeping: update nesting, expire locks whose block closed,
      // then register locks declared here before flagging I/O on the line.
      for (const char c : line.code) {
        if (c == '{') ++depth;
        if (c == '}') {
          --depth;
          while (!lock_depths.empty() && lock_depths.back() > depth)
            lock_depths.pop_back();
        }
      }
      if (std::regex_search(line.code, lock_decl_re()))
        lock_depths.push_back(depth);
      if (!lock_depths.empty() && !allowed(allows, "C001") &&
          std::regex_search(line.code, m, io_call_re()))
        report.add("C001", subject,
                   "blocking I/O while a lock is held (`" + strip_ws(m.str()) +
                       "...`); release the lock or buffer first");
    }
  }
}

bool scan_source_file(const std::string& path, Report& report,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot open file: " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  scan_source(path, buf.str(), report);
  return true;
}

bool collect_sources(const std::vector<std::string>& paths,
                     std::vector<std::string>& out, std::string* error) {
  namespace fs = std::filesystem;
  const auto is_cpp = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hh" || ext == ".hpp" || ext == ".cc" ||
           ext == ".cpp" || ext == ".cxx";
  };
  for (const std::string& path : paths) {
    std::error_code ec;
    const fs::file_status st = fs::status(path, ec);
    if (ec || st.type() == fs::file_type::not_found) {
      if (error) *error = "no such file or directory: " + path;
      return false;
    }
    if (fs::is_directory(st)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           it != end && !ec; it.increment(ec))
        if (it->is_regular_file() && is_cpp(it->path()))
          out.push_back(normalize_path(it->path().string()));
      if (ec) {
        if (error) *error = "cannot traverse " + path + ": " + ec.message();
        return false;
      }
    } else {
      out.push_back(normalize_path(path));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return true;
}

}  // namespace dsp::analysis
