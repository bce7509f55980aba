// bench_diff: compares the `scalars` of two BENCH_*.json reports (see
// bench/bench_common.h BenchJsonReport) and fails on relative
// regressions beyond a threshold.
//
//   bench_diff <base.json> <candidate.json> [--threshold <pct>] [--json <out>]
//
// Every scalar present in both files is compared as
// (candidate - base) / base; scalars only in one file are listed but
// never fail the run (benchmarks come and go). Exit 0 when no compared
// scalar regresses more than the threshold (default 5%), 1 on a
// regression, 2 on usage/parse errors or an empty comparison set.
//
// The bench-diff CI stage runs this against the committed
// bench/BENCH_hotpath.json baseline; thresholds there are generous
// because CI machines are noisy — the check catches order-of-magnitude
// slips, not single-digit drift.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/log.h"
#include "util/table.h"

namespace dsp {
namespace {

bool load_scalars(const std::string& path,
                  std::vector<std::pair<std::string, double>>& out,
                  std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  obs::json::Value root;
  if (!obs::json::parse(buf.str(), root, &error)) {
    error = path + ": " + error;
    return false;
  }
  const obs::json::Value* scalars = root.find("scalars");
  if (scalars == nullptr || !scalars->is_object()) {
    error = path + ": no \"scalars\" object";
    return false;
  }
  for (const auto& [key, value] : scalars->object)
    if (value.is_number()) out.emplace_back(key, value.number);
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <base.json> <candidate.json>"
               " [--threshold <pct>] [--json <out.json>]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace dsp

int main(int argc, char** argv) {
  std::vector<std::string> pos;
  std::string json_path;
  double threshold_pct = 5.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc) return dsp::usage(argv[0]);
      const char* v = argv[++i];
      char* end = nullptr;
      threshold_pct = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(threshold_pct) ||
          threshold_pct < 0.0) {
        std::fprintf(stderr,
                     "bench_diff: --threshold expects a finite percentage "
                     ">= 0, got \"%s\"\n",
                     v);
        return 2;
      }
    } else if (arg == "--json") {
      if (i + 1 >= argc) return dsp::usage(argv[0]);
      json_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return dsp::usage(argv[0]);
    } else {
      pos.push_back(arg);
    }
  }
  if (pos.size() != 2) return dsp::usage(argv[0]);

  std::vector<std::pair<std::string, double>> base, cand;
  std::string error;
  if (!dsp::load_scalars(pos[0], base, error) ||
      !dsp::load_scalars(pos[1], cand, error)) {
    std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
    return 2;
  }

  auto find = [](const std::vector<std::pair<std::string, double>>& v,
                 const std::string& key) -> const double* {
    for (const auto& [k, x] : v)
      if (k == key) return &x;
    return nullptr;
  };

  struct Row {
    std::string key;
    double base_v, cand_v, delta_pct;
    bool regressed;
  };
  std::vector<Row> rows;
  std::size_t only_base = 0, only_cand = 0;
  for (const auto& [key, bv] : base) {
    const double* cv = find(cand, key);
    if (cv == nullptr) {
      ++only_base;
      continue;
    }
    const double delta_pct = bv != 0.0 ? (*cv - bv) / bv * 100.0 : 0.0;
    rows.push_back({key, bv, *cv, delta_pct, delta_pct > threshold_pct});
  }
  for (const auto& [key, cv] : cand)
    if (find(base, key) == nullptr) ++only_cand;

  if (rows.empty()) {
    std::fprintf(stderr,
                 "bench_diff: no common scalars between %s and %s\n",
                 pos[0].c_str(), pos[1].c_str());
    return 2;
  }

  dsp::Table t{"Benchmark comparison (threshold " +
               dsp::fmt(threshold_pct, 1) + "%)"};
  t.set_header({"scalar", "base", "candidate", "delta%", "verdict"});
  std::size_t regressions = 0;
  for (const Row& r : rows) {
    if (r.regressed) ++regressions;
    t.add_row({r.key, dsp::fmt(r.base_v, 1), dsp::fmt(r.cand_v, 1),
               dsp::fmt(r.delta_pct, 1), r.regressed ? "REGRESSED" : "ok"});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\n%zu compared, %zu regression%s", rows.size(), regressions,
              regressions == 1 ? "" : "s");
  if (only_base || only_cand)
    std::printf(" (%zu only in base, %zu only in candidate)", only_base,
                only_cand);
  std::printf("\n");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "bench_diff: cannot open %s\n", json_path.c_str());
      return 2;
    }
    out << "{\"report\":\"bench_diff\",\"base\":\""
        << dsp::obs::json_escape(pos[0]) << "\",\"candidate\":\""
        << dsp::obs::json_escape(pos[1]) << "\",\"threshold_pct\":";
    dsp::obs::write_json_number(out, threshold_pct);
    out << ",\"compared\":" << rows.size()
        << ",\"regressions\":" << regressions << ",\"scalars\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      if (i) out << ",";
      out << "{\"name\":\"" << dsp::obs::json_escape(r.key)
          << "\",\"base\":";
      dsp::obs::write_json_number(out, r.base_v);
      out << ",\"candidate\":";
      dsp::obs::write_json_number(out, r.cand_v);
      out << ",\"delta_pct\":";
      dsp::obs::write_json_number(out, r.delta_pct);
      out << ",\"regressed\":" << (r.regressed ? "true" : "false") << "}";
    }
    out << "]}\n";
    out.close();  // flushes: a full disk shows up only here
    if (!out) {
      std::fprintf(stderr, "bench_diff: cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  if (!dsp::flush_stdout("bench_diff")) return 2;
  return regressions == 0 ? 0 : 1;
}
