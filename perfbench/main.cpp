// Benchmark harness: runs one workload repeatedly for a time budget and
// prints, as its last line, one JSON object of raw measurements that
// perfbench/run.py turns into the benchmark's metrics.
//
//   dsp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans PATH]
//   dsp_perfbench --selftest
//
// Untraced repetitions give the end-to-end numbers. With --trace 1 the
// repetitions alternate untraced and traced, so the traced ones give the
// per-layer numbers and the pair gives the tracing overhead. End-to-end
// seconds are scaled to a reference host speed (host_speed.h).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/schedule_check.h"
#include "core/ilp_model.h"
#include "host_speed.h"
#include "layer_trace.h"
#include "obs/metrics.h"
#include "workloads.h"

int run_selftest();  // selftest.cpp

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  bool selftest = false;
};

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "dsp_perfbench: %s needs a value\n", arg.c_str());
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (arg == "--trace") {
      o.trace = v == "1";
      if (v != "0" && v != "1") end = argv[i];
    } else if (arg == "--spans") {
      o.spans_path = v;
    } else {
      std::fprintf(stderr, "dsp_perfbench: unknown option %s\n", arg.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "dsp_perfbench: bad value for %s: %s\n",
                   arg.c_str(), v.c_str());
      return false;
    }
  }
  if (!o.selftest && (o.workload.empty() || !(o.seconds > 0.0))) {
    std::fprintf(stderr,
                 "usage: dsp_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n"
                 "       dsp_perfbench --selftest\n");
    return false;
  }
  return true;
}

/// Fixes everything the program reads from the environment, so a result
/// never depends on the caller's shell.
void pin_environment() {
  setenv("DSP_THREADS", "1", 1);
  setenv("DSP_LOG", "warn", 1);
  unsetenv("DSP_EVENT_LOG");
  unsetenv("DSP_EVENT_RING");
  unsetenv("DSP_EVENT_SAMPLE");
  // glibc raises its mmap threshold each time a large block is freed, so
  // later blocks come from a fragmenting heap and peak RSS grows with the
  // number of repetitions that happened to fit in the time budget. Pin
  // the threshold at glibc's default of 128 KiB.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
}

using Fields = std::vector<std::pair<std::string, double>>;

void write_fields(std::ostream& out, const Fields& fields) {
  out << '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out << ',';
    dsp::obs::write_json_string(out, fields[i].first);
    out << ':';
    write_json_double(out, fields[i].second);
  }
  out << '}';
}

/// What one scenario or ILP instance produced. `stats` are the simulated
/// statistics run.py compares with the recorded ones; `counts` are
/// program counts that need only repeat within a run. One operation is
/// one repetition's run of the scenario (or solve of the instance).
struct Outcome {
  std::string name;
  Fields stats;
  Fields counts;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  ///< Operations whose output checks failed.
};

/// The output checks. The first repetition's outcomes are kept; later
/// repetitions, traced or not, must reproduce them exactly.
struct Outcomes {
  std::vector<Outcome> items;  ///< In workload order.
  std::vector<std::string> messages;  ///< The first few failures.

  void record(std::size_t i, Outcome o, std::vector<std::string> problems) {
    if (i == items.size()) {
      items.push_back(std::move(o));
    } else {
      if (items[i].stats != o.stats)
        problems.push_back(o.name + ": simulated statistics differ between "
                                    "repetitions");
      if (items[i].counts != o.counts)
        problems.push_back(o.name + ": counts differ between repetitions");
    }
    ++items[i].ops;
    if (problems.empty()) return;
    ++items[i].failed;
    for (std::string& p : problems)
      if (messages.size() < 20) messages.push_back(std::move(p));
  }
};

/// One repetition of the whole workload. setup_s and run_s are reference
/// seconds (host_speed.h); wall_run_s is run_s as the host measured it.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  double wall_run_s = 0.0;
  double slowdown = 1.0;  ///< Median kernel time over the reference's.
  double tasks = 0.0;  ///< Tasks the repetition completed or scheduled.
  Fields layers;
};

/// ILP instances per host-speed bracket: about as long as one scenario.
constexpr std::size_t kIlpBlock = 100;

/// Time tolerance of the ilp_small schedule checks. The exact solver's
/// big-M constraints hold only to the LP's feasibility tolerance, which
/// leaves overlaps of a few microseconds on schedules a few seconds long
/// (seed 204, instance 910: 2.8 us). The checker's 1 us default would
/// flag that round-off as a broken schedule.
constexpr double kScheduleTolS = 1e-4;

double ms(double s) { return s * 1e3; }
double us(double s) { return s * 1e6; }
double ns(double s) { return s * 1e9; }
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Fields sim_stats(const dsp::RunMetrics& m) {
  return {{"makespan_us", static_cast<double>(m.makespan)},
          {"tasks_finished", static_cast<double>(m.tasks_finished)},
          {"jobs_finished", static_cast<double>(m.jobs_finished)},
          {"jobs_met_deadline", static_cast<double>(m.jobs_met_deadline)},
          {"disorders", static_cast<double>(m.disorders)},
          {"preemptions", static_cast<double>(m.preemptions)},
          {"suppressed_preemptions",
           static_cast<double>(m.suppressed_preemptions)},
          {"preempt_evaluations", static_cast<double>(m.preempt_evaluations)},
          {"avg_job_waiting_s", m.avg_job_waiting_s()}};
}

/// Per-layer fields, in the order BENCHMARK.json lists them. Workloads
/// that never reach a layer report zeros for it.
struct Layers {
  double trace_tasks = 0, sim_run_s = 0, sim_init_s = 0, sim_self_s = 0,
         sim_events = 0;
  std::vector<double> samples[kCallKinds];
  double call_s[kCallKinds] = {}, call_outcomes[kCallKinds] = {};
  double policy_preemptions = 0, policy_evaluations = 0, policy_disorders = 0;
  double priority_calls = 0, priority_s = 0;
  double lp_exact_s = 0, lp_relax_round_s = 0, lp_milp_nodes = 0,
         lp_simplex_solves = 0, lp_warm_hits = 0, lp_warm_misses = 0;

  Fields fields() {
    const auto k = [](Call c) { return static_cast<std::size_t>(c); };
    const std::size_t sc = k(Call::kSchedule), sn = k(Call::kSelectNext),
                      ep = k(Call::kOnEpoch);
    const auto n = [&](std::size_t i) {
      return static_cast<double>(samples[i].size());
    };
    const Percentiles s = percentiles(samples[sc]);
    const Percentiles d = percentiles(samples[sn]);
    const Percentiles e = percentiles(samples[ep]);
    return {
        {"trace.tasks", trace_tasks},
        {"sim.run_s", sim_run_s},
        {"sim.init_s", sim_init_s},
        {"sim.self_s", sim_self_s},
        {"sim.events", sim_events},
        {"sched.calls", n(sc)},
        {"sched.s", call_s[sc]},
        {"sched.ms.p50", ms(s.p50)},
        {"sched.ms.tail", ms(s.tail)},
        {"sched.ms.tail_pct", s.tail_pct},
        {"sched.tasks_placed", call_outcomes[sc]},
        {"dispatch.calls", n(sn)},
        {"dispatch.s", call_s[sn]},
        {"dispatch.ns.p50", ns(d.p50)},
        {"dispatch.ns.tail", ns(d.tail)},
        {"dispatch.ns.tail_pct", d.tail_pct},
        {"dispatch.miss_ratio", ratio(call_outcomes[sn], n(sn))},
        {"policy.epochs", n(ep)},
        {"policy.s", call_s[ep]},
        {"policy.us.p50", us(e.p50)},
        {"policy.us.tail", us(e.tail)},
        {"policy.us.tail_pct", e.tail_pct},
        {"policy.idle_ratio", ratio(call_outcomes[ep], n(ep))},
        {"policy.preemptions", policy_preemptions},
        {"policy.evaluations", policy_evaluations},
        {"policy.disorders", policy_disorders},
        {"priority.calls", priority_calls},
        {"priority.s", priority_s},
        {"lp.exact_s", lp_exact_s},
        {"lp.relax_round_s", lp_relax_round_s},
        {"lp.milp_nodes", lp_milp_nodes},
        {"lp.simplex_solves", lp_simplex_solves},
        {"lp.warm_start_hit_ratio",
         ratio(lp_warm_hits, lp_warm_hits + lp_warm_misses)},
    };
  }
};

class Bench {
 public:
  Bench(const Options& o, Workload w)
      : opt_(o), w_(std::move(w)), origin_(Clock::now()), spans_(origin_) {}

  int run();

 private:
  Rep sim_rep(bool traced, std::uint32_t rep_span);
  Rep ilp_rep(bool traced, std::uint32_t rep_span);
  void write_result(std::ostream& out, const std::vector<Rep>& reps) const;

  Options opt_;
  Workload w_;
  Clock::time_point origin_;
  SpanLog spans_;
  Outcomes outcomes_;
  std::vector<std::uint64_t> trace_tasks_;  ///< Per scenario.
};

Rep Bench::sim_rep(bool traced, std::uint32_t rep_span) {
  Rep rep;
  Layers layers;
  SpeedBracket bracket;
  for (std::size_t i = 0; i < w_.scenarios.size(); ++i) {
    const dsp::ScenarioSpec& spec = w_.scenarios[i];
    ScenarioRun r = measure_scenario(spec, traced);
    const double scale = bracket.close();
    const dsp::RunMetrics& m = r.metrics;

    const std::uint32_t sid = spans_.open(spec.name, rep_span, r.start);
    spans_.close(spans_.open("setup", sid, r.start), r.setup_done);
    const std::uint32_t run_span = spans_.open("run", sid, r.run_start);
    spans_.close(run_span, r.end);
    if (traced) spans_.attach_calls(run_span, r.calls);
    spans_.close(sid, r.end);

    std::vector<std::string> problems;
    if (m.jobs_finished != spec.workload.job_count)
      problems.push_back(spec.name + ": " + std::to_string(m.jobs_finished) +
                         " of " + std::to_string(spec.workload.job_count) +
                         " jobs finished");
    if (m.tasks_finished != trace_tasks_[i])
      problems.push_back(spec.name + ": tasks_finished " +
                         std::to_string(m.tasks_finished) + " != trace.tasks " +
                         std::to_string(trace_tasks_[i]));
    if (is_dsp_policy(spec) && m.disorders != 0)
      problems.push_back(spec.name + ": DSP made " +
                         std::to_string(m.disorders) + " disorders");
    outcomes_.record(i,
                     {spec.name,
                      sim_stats(m),
                      {{"engine.events", static_cast<double>(r.events)},
                       {"priority.calls", static_cast<double>(r.priority_calls)}}},
                     std::move(problems));

    rep.setup_s += r.setup_s() * scale;
    rep.run_s += r.run_s() * scale;
    rep.wall_run_s += r.run_s();
    rep.tasks += static_cast<double>(m.tasks_finished);

    layers.trace_tasks += static_cast<double>(trace_tasks_[i]);
    layers.sim_run_s += m.sim_wall_s;
    layers.sim_init_s += r.run_s() - m.sim_wall_s;
    layers.sim_self_s += m.sim_wall_s - r.calls.outermost_s();
    layers.sim_events += static_cast<double>(r.events);
    for (std::size_t k = 0; k < kCallKinds; ++k) {
      const CallLedger& l = r.calls.ledger(static_cast<Call>(k));
      const std::vector<double>& samples = r.calls.samples_s(static_cast<Call>(k));
      layers.samples[k].insert(layers.samples[k].end(), samples.begin(),
                               samples.end());
      layers.call_s[k] += l.total_s;
      layers.call_outcomes[k] += static_cast<double>(l.outcomes);
    }
    layers.policy_preemptions += static_cast<double>(m.preemptions);
    layers.policy_evaluations += static_cast<double>(m.preempt_evaluations);
    layers.policy_disorders += static_cast<double>(m.disorders);
    layers.priority_calls += static_cast<double>(r.priority_calls);
    layers.priority_s += r.priority_s;
  }
  rep.slowdown = bracket.slowdown();
  rep.layers = layers.fields();
  return rep;
}

Rep Bench::ilp_rep(bool traced, std::uint32_t rep_span) {
  Rep rep;
  dsp::obs::MetricsRegistry& registry = dsp::obs::default_registry();
  registry.reset();

  SpeedBracket bracket;
  const Clock::time_point t0 = Clock::now();
  const std::vector<dsp::IlpProblem> instances = make_ilp_instances(opt_.seed);
  const Clock::time_point t1 = Clock::now();
  spans_.close(spans_.open("setup", rep_span, t0), t1);
  // Set-up shares the first bracket with the first block of instances.
  double setup_s = seconds_between(t0, t1), block_s = 0.0;

  Layers layers;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const dsp::IlpProblem& p = instances[i];
    const std::string name = "instance-" + std::to_string(i);
    const Clock::time_point a = Clock::now();
    const dsp::IlpScheduleResult exact = dsp::solve_ilp_schedule(p);
    const Clock::time_point b = Clock::now();
    const dsp::IlpScheduleResult rr = dsp::solve_relax_round(p);
    const Clock::time_point c = Clock::now();

    if (traced) {
      // Spans per solver call only when traced: their number grows with
      // the repetitions, and untraced runs report peak memory.
      const std::uint32_t sid = spans_.open(name, rep_span, a);
      spans_.close(spans_.open("solve_ilp_schedule", sid, a), b);
      spans_.close(spans_.open("solve_relax_round", sid, b), c);
      spans_.close(sid, c);
    }
    layers.lp_exact_s += seconds_between(a, b);
    layers.lp_relax_round_s += seconds_between(b, c);
    block_s += seconds_between(a, c);
    rep.tasks += static_cast<double>(p.tasks.size());

    std::vector<std::string> problems;
    for (const auto& [label, result] :
         {std::pair<const char*, const dsp::IlpScheduleResult&>{"exact", exact},
          {"relax-round", rr}}) {
      if (!result.ok()) {
        problems.push_back(name + ": " + label + " solve found no schedule");
        continue;
      }
      dsp::analysis::Report report;
      dsp::analysis::check_schedule(dsp::analysis::make_schedule_doc(p, result),
                                    {.time_tol_s = kScheduleTolS}, report);
      for (const dsp::analysis::Diagnostic& d : report.diagnostics())
        problems.push_back(name + ": " + label + " schedule fails " + d.rule +
                           ": " + d.message);
    }
    if (exact.ok() && rr.ok() &&
        exact.makespan_s > rr.makespan_s + kScheduleTolS)
      problems.push_back(name + ": exact makespan exceeds relax-round's");
    outcomes_.record(
        i,
        {name,
         {{"tasks", static_cast<double>(p.tasks.size())},
          {"machines", static_cast<double>(p.machine_rates.size())},
          {"exact_makespan_s", exact.makespan_s},
          {"relax_round_makespan_s", rr.makespan_s}},
         {}},
        std::move(problems));
    if ((i + 1) % kIlpBlock == 0 || i + 1 == instances.size()) {
      const double scale = bracket.close();
      rep.setup_s += setup_s * scale;
      rep.run_s += block_s * scale;
      setup_s = block_s = 0.0;
    }
  }

  rep.wall_run_s = layers.lp_exact_s + layers.lp_relax_round_s;
  rep.slowdown = bracket.slowdown();
  layers.lp_milp_nodes =
      static_cast<double>(registry.counter("lp.milp_nodes")->value());
  layers.lp_simplex_solves = static_cast<double>(
      registry.histogram("lp.simplex_solve_s")->snapshot().count);
  layers.lp_warm_hits =
      static_cast<double>(registry.counter("lp.warm_start_hit")->value());
  layers.lp_warm_misses =
      static_cast<double>(registry.counter("lp.warm_start_miss")->value());
  rep.layers = layers.fields();
  return rep;
}

int Bench::run() {
  const std::uint32_t root = spans_.open(w_.name, 0, origin_);
  // trace.tasks, outside every timed section: each scenario's workload
  // generated once more, only to count its tasks.
  for (const dsp::ScenarioSpec& spec : w_.scenarios)
    trace_tasks_.push_back(dsp::total_tasks(
        dsp::WorkloadGenerator(spec.workload, spec.seed).generate()));

  // Repeat until the next repetition would overrun the budget; medians
  // over the repetitions are what run.py reports.
  const std::size_t min_reps = opt_.trace ? 4 : 3;
  const Clock::time_point start = Clock::now();
  double longest = 0.0;
  std::vector<Rep> reps;
  for (;;) {
    const bool traced = opt_.trace && reps.size() % 2 == 1;
    const Clock::time_point r0 = Clock::now();
    const std::uint32_t rep_span = spans_.open(
        "rep-" + std::to_string(reps.size()) + (traced ? "-traced" : ""),
        root, r0);
    Rep rep = w_.ilp ? ilp_rep(traced, rep_span) : sim_rep(traced, rep_span);
    rep.traced = traced;
    reps.push_back(std::move(rep));
    const Clock::time_point r1 = Clock::now();
    spans_.close(rep_span, r1);
    longest = std::max(longest, seconds_between(r0, r1));
    if (reps.size() >= min_reps &&
        seconds_between(start, r1) + longest > opt_.seconds)
      break;
  }
  spans_.close(root, Clock::now());

  if (!opt_.spans_path.empty()) {
    std::ofstream out(opt_.spans_path);
    spans_.write_json(out);
    if (!out) {
      std::fprintf(stderr, "dsp_perfbench: cannot write %s\n",
                   opt_.spans_path.c_str());
      return 1;
    }
  }
  write_result(std::cout, reps);
  std::cout << '\n';
  return 0;
}

/// Peak resident memory of this process image, in MiB. getrusage's
/// ru_maxrss is not used directly: Linux carries the launching process's
/// high-water mark over fork and exec into it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Bench::write_result(std::ostream& out, const std::vector<Rep>& reps) const {
  out << "{\"workload\":";
  dsp::obs::write_json_string(out, w_.name);
  out << ",\"seed\":" << opt_.seed << ",\"trace\":" << (opt_.trace ? 1 : 0)
      << ",\"build_type\":";
  dsp::obs::write_json_string(out, PERFBENCH_BUILD_TYPE);
  out << ",\"compiler\":";
  dsp::obs::write_json_string(out, std::string("g++ ") + __VERSION__);
  out << ",\"dsp_threads\":";
  dsp::obs::write_json_string(out, std::getenv("DSP_THREADS"));
  out << ",\"peak_rss_mb\":";
  write_json_double(out, peak_rss_mb());
  out << ",\"failures\":[";
  for (std::size_t i = 0; i < outcomes_.messages.size(); ++i) {
    if (i > 0) out << ',';
    dsp::obs::write_json_string(out, outcomes_.messages[i]);
  }
  out << "],\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    if (i > 0) out << ',';
    out << "{\"traced\":" << (r.traced ? "true" : "false") << ",\"setup_s\":";
    write_json_double(out, r.setup_s);
    out << ",\"run_s\":";
    write_json_double(out, r.run_s);
    out << ",\"wall_run_s\":";
    write_json_double(out, r.wall_run_s);
    out << ",\"slowdown\":";
    write_json_double(out, r.slowdown);
    out << ",\"tasks\":";
    write_json_double(out, r.tasks);
    out << ",\"layers\":";
    write_fields(out, r.layers);
    out << '}';
  }
  out << "],\"outcomes\":[";
  for (std::size_t i = 0; i < outcomes_.items.size(); ++i) {
    const Outcome& o = outcomes_.items[i];
    if (i > 0) out << ',';
    out << "{\"name\":";
    dsp::obs::write_json_string(out, o.name);
    out << ",\"ops\":" << o.ops << ",\"failed\":" << o.failed << ",\"stats\":";
    write_fields(out, o.stats);
    out << ",\"counts\":";
    write_fields(out, o.counts);
    out << '}';
  }
  out << "]}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "dsp_perfbench: built without NDEBUG; timings of an assert "
               "build are not the benchmark. Build with "
               "-DCMAKE_BUILD_TYPE=Release.\n");
  return 2;
#endif
  perfbench::pin_environment();
  perfbench::Options opt;
  if (!perfbench::parse_options(argc, argv, opt)) return 2;
  if (opt.selftest) return run_selftest();

  perfbench::Workload w;
  if (!perfbench::make_workload(opt.workload, opt.seed, w)) {
    std::fprintf(stderr, "dsp_perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(opt, std::move(w));
  return bench.run();
}
