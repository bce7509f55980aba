// dsp_report: run analytics and first-divergence diff over flight
// recorder event logs (JSONL, written via DSP_EVENT_LOG — see
// src/obs/events.h).
//
//   dsp_report <log.jsonl> [--json <out.json>]
//       Per-job timelines, queueing-delay and preemption-latency
//       histograms, and a per-epoch cluster-utilization time series.
//       Text tables on stdout; --json writes a machine-readable report
//       (validated by json_check in the report-smoke CI stage).
//
//   dsp_report diff <a.jsonl> <b.jsonl> [--json <out.json>]
//       Byte-compares the two logs line by line and pinpoints the
//       earliest differing event. Because every emit point sits in the
//       engine's serial loop, logs from same-seed runs must be
//       bit-identical, also for one scenario of dsp_sweep at --threads 1
//       and --threads 4 — a non-empty diff localizes a determinism bug to
//       the first event where the runs disagree.
//       Exit 0 when identical, 1 on divergence, 2 on usage/parse errors.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/log.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/time.h"

namespace dsp {
namespace {

constexpr double kUsPerSecond = 1e6;

/// Everything the analytics mode derives from one parsed log.
struct RunReport {
  struct JobRow {
    std::uint32_t job = 0;
    double tasks = 0.0;       // from kJobArrival payload a
    SimTime arrival = -1;
    SimTime first_dispatch = -1;
    SimTime complete = -1;
    bool completed = false;
    bool deadline_met = false;
    double mean_wait_s = 0.0;  // from kJobComplete payload a
  };
  struct EpochUtil {
    std::uint32_t epoch = 0;
    double util = 0.0;  // occupied-slot-time / (slots * wall)
  };

  std::size_t events = 0;
  double slots = 0.0;  // from kRunInfo payload b (0 when absent)
  std::vector<JobRow> jobs;
  // Every sample is kept, so the percentiles cover the whole run.
  std::vector<double> queueing_delay;   // enqueue -> dispatch, seconds
  std::vector<double> preempt_latency;  // preempt -> re-dispatch, seconds
  std::vector<EpochUtil> utilization;
  std::uint64_t preempt_decisions = 0;
  std::uint64_t preempt_fired = 0;
};

RunReport analyze(const std::vector<obs::Event>& events) {
  RunReport r;
  r.events = events.size();

  std::map<std::uint32_t, RunReport::JobRow> jobs;
  std::map<Gid, SimTime> enqueued_at;   // pending enqueue per task
  std::map<Gid, SimTime> preempted_at;  // awaiting re-dispatch per task

  // Slot-occupancy integration between epoch boundaries. A slot is
  // occupied while a task runs on it or hoards it; kEpoch events close
  // the current bucket.
  int occupied = 0;
  SimTime last_time = 0;
  SimTime bucket_start = 0;
  double bucket_busy_us = 0.0;  // sum of occupied * dt
  std::uint32_t bucket_epoch = 0;
  auto close_bucket = [&](SimTime now) {
    const double wall_us = static_cast<double>(now - bucket_start);
    if (wall_us > 0.0 && r.slots > 0.0)
      r.utilization.push_back(
          {bucket_epoch, bucket_busy_us / (r.slots * wall_us)});
    bucket_start = now;
    bucket_busy_us = 0.0;
  };

  for (const obs::Event& e : events) {
    bucket_busy_us += static_cast<double>(occupied) *
                      static_cast<double>(e.time - last_time);
    last_time = e.time;

    switch (e.kind) {
      case obs::EventKind::kRunInfo:
        r.slots = e.b;
        break;
      case obs::EventKind::kJobArrival: {
        RunReport::JobRow& row = jobs[e.job];
        row.job = e.job;
        row.tasks = e.a;
        row.arrival = e.time;
        break;
      }
      case obs::EventKind::kJobComplete: {
        RunReport::JobRow& row = jobs[e.job];
        row.job = e.job;
        row.complete = e.time;
        row.completed = true;
        row.deadline_met = (e.flags & obs::kEventFlagDeadlineMet) != 0;
        row.mean_wait_s = e.a;
        break;
      }
      case obs::EventKind::kTaskEnqueue:
        enqueued_at[e.task] = e.time;
        break;
      case obs::EventKind::kTaskDispatch: {
        RunReport::JobRow& row = jobs[e.job];
        row.job = e.job;
        if (row.first_dispatch < 0) row.first_dispatch = e.time;
        if (auto it = enqueued_at.find(e.task); it != enqueued_at.end()) {
          r.queueing_delay.push_back(
              static_cast<double>(e.time - it->second) / kUsPerSecond);
          enqueued_at.erase(it);
        }
        if (auto it = preempted_at.find(e.task); it != preempted_at.end()) {
          r.preempt_latency.push_back(
              static_cast<double>(e.time - it->second) / kUsPerSecond);
          preempted_at.erase(it);
        }
        ++occupied;
        break;
      }
      case obs::EventKind::kHoardStart:
        ++occupied;
        break;
      case obs::EventKind::kTaskFinish:
      case obs::EventKind::kHoardEvict:
        if (occupied > 0) --occupied;
        break;
      case obs::EventKind::kTaskPreempt:
        preempted_at[e.task] = e.time;
        if (occupied > 0) --occupied;
        break;
      case obs::EventKind::kPreemptDecision:
        ++r.preempt_decisions;
        if (obs::decision_of(e).outcome == obs::PreemptOutcome::kFired)
          ++r.preempt_fired;
        break;
      case obs::EventKind::kEpoch:
        close_bucket(e.time);
        bucket_epoch = static_cast<std::uint32_t>(e.a);
        break;
      default:
        break;
    }
  }
  close_bucket(last_time);

  r.jobs.reserve(jobs.size());
  for (auto& [id, row] : jobs) r.jobs.push_back(row);
  return r;
}

/// Summary of one latency distribution over all of its samples.
struct Distribution {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

Distribution summarize(const std::vector<double>& samples) {
  if (samples.empty()) return {};
  return {.count = samples.size(),
          .mean = mean_of(samples),
          .p50 = percentile(samples, 0.50),
          .p95 = percentile(samples, 0.95),
          .p99 = percentile(samples, 0.99),
          .max = *std::max_element(samples.begin(), samples.end())};
}

std::string fmt_time_s(SimTime t) {
  return t < 0 ? std::string("-") : fmt(to_seconds(t), 3);
}

void print_text(const RunReport& r) {
  Table jobs{"Per-job timeline (times in s)"};
  jobs.set_header({"job", "tasks", "arrival", "first_dispatch", "complete",
                   "span", "deadline", "mean_wait"});
  for (const auto& j : r.jobs) {
    const double span =
        j.completed && j.arrival >= 0 ? to_seconds(j.complete - j.arrival) : -1;
    jobs.add_row({fmt_count(j.job), fmt_count(static_cast<long long>(j.tasks)),
                  fmt_time_s(j.arrival), fmt_time_s(j.first_dispatch),
                  fmt_time_s(j.complete), span < 0 ? "-" : fmt(span, 3),
                  j.completed ? (j.deadline_met ? "met" : "miss") : "-",
                  fmt(j.mean_wait_s, 3)});
  }
  std::fputs(jobs.render().c_str(), stdout);

  Table histos{"Latency distributions (s)"};
  histos.set_header(
      {"metric", "count", "mean", "p50", "p95", "p99", "max"});
  for (const auto& [name, samples] :
       {std::pair<const char*, const std::vector<double>*>{"queueing_delay",
                                                           &r.queueing_delay},
        {"preempt_latency", &r.preempt_latency}}) {
    const Distribution s = summarize(*samples);
    histos.add_row({name, fmt_count(static_cast<long long>(s.count)),
                    fmt(s.mean, 4), fmt(s.p50, 4), fmt(s.p95, 4),
                    fmt(s.p99, 4), fmt(s.max, 4)});
  }
  std::fputs(histos.render().c_str(), stdout);

  Table util{"Cluster utilization per epoch"};
  util.set_header({"epoch", "util"});
  for (const auto& u : r.utilization)
    util.add_row({fmt_count(u.epoch), fmt(u.util, 4)});
  std::fputs(util.render().c_str(), stdout);

  std::printf("\n%zu events; %llu preempt decisions (%llu fired)\n", r.events,
              static_cast<unsigned long long>(r.preempt_decisions),
              static_cast<unsigned long long>(r.preempt_fired));
}

void write_distribution_json(std::ostream& out,
                             const std::vector<double>& samples) {
  const Distribution s = summarize(samples);
  out << "{\"count\":" << s.count << ",\"mean\":";
  obs::write_json_number(out, s.mean);
  out << ",\"p50\":";
  obs::write_json_number(out, s.p50);
  out << ",\"p95\":";
  obs::write_json_number(out, s.p95);
  out << ",\"p99\":";
  obs::write_json_number(out, s.p99);
  out << ",\"max\":";
  obs::write_json_number(out, s.max);
  out << "}";
}

bool write_json_report(const RunReport& r, const std::string& log_path,
                       const std::string& out_path) {
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "dsp_report: cannot open %s\n", out_path.c_str());
    return false;
  }
  std::size_t completed = 0, met = 0;
  for (const auto& j : r.jobs) {
    completed += j.completed ? 1 : 0;
    met += j.deadline_met ? 1 : 0;
  }
  double util_sum = 0.0;
  for (const auto& u : r.utilization) util_sum += u.util;

  out << "{\"report\":\"run\",\"log\":\"" << obs::json_escape(log_path)
      << "\",\"events\":" << r.events << ",\"jobs\":{\"count\":"
      << r.jobs.size() << ",\"completed\":" << completed
      << ",\"deadline_met\":" << met << "},\"queueing_delay_s\":";
  write_distribution_json(out, r.queueing_delay);
  out << ",\"preempt_latency_s\":";
  write_distribution_json(out, r.preempt_latency);
  out << ",\"preempt\":{\"decisions\":" << r.preempt_decisions
      << ",\"fired\":" << r.preempt_fired << "}";
  out << ",\"utilization\":{\"epochs\":" << r.utilization.size()
      << ",\"mean\":";
  obs::write_json_number(
      out, r.utilization.empty()
               ? 0.0
               : util_sum / static_cast<double>(r.utilization.size()));
  out << ",\"series\":[";
  for (std::size_t i = 0; i < r.utilization.size(); ++i) {
    if (i) out << ",";
    out << "{\"epoch\":" << r.utilization[i].epoch << ",\"util\":";
    obs::write_json_number(out, r.utilization[i].util);
    out << "}";
  }
  out << "]},\"per_job\":[";
  for (std::size_t i = 0; i < r.jobs.size(); ++i) {
    const auto& j = r.jobs[i];
    if (i) out << ",";
    out << "{\"job\":" << j.job << ",\"tasks\":"
        << static_cast<long long>(j.tasks) << ",\"arrival_s\":";
    obs::write_json_number(out, j.arrival < 0 ? -1.0 : to_seconds(j.arrival));
    out << ",\"complete_s\":";
    obs::write_json_number(out,
                           j.complete < 0 ? -1.0 : to_seconds(j.complete));
    out << ",\"completed\":" << (j.completed ? "true" : "false")
        << ",\"deadline_met\":" << (j.deadline_met ? "true" : "false")
        << ",\"mean_wait_s\":";
    obs::write_json_number(out, j.mean_wait_s);
    out << "}";
  }
  out << "]}\n";
  out.close();  // flushes: a full disk shows up only here
  if (!out) {
    std::fprintf(stderr, "dsp_report: cannot write %s\n", out_path.c_str());
    return false;
  }
  return true;
}

/// Reads all lines of `path` (without trailing newlines). False on I/O
/// failure.
bool read_lines(const std::string& path, std::vector<std::string>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return true;
}

int run_diff(const std::string& a_path, const std::string& b_path,
             const std::string& json_path) {
  std::vector<std::string> a, b;
  if (!read_lines(a_path, a)) {
    std::fprintf(stderr, "dsp_report: cannot open %s\n", a_path.c_str());
    return 2;
  }
  if (!read_lines(b_path, b)) {
    std::fprintf(stderr, "dsp_report: cannot open %s\n", b_path.c_str());
    return 2;
  }

  // First divergence: the earliest line index where the logs disagree,
  // including one log simply ending before the other.
  long long divergence = -1;
  const std::size_t common = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) {
      divergence = static_cast<long long>(i);
      break;
    }
  }
  if (divergence < 0 && a.size() != b.size())
    divergence = static_cast<long long>(common);

  const std::string line_a =
      divergence >= 0 && static_cast<std::size_t>(divergence) < a.size()
          ? a[static_cast<std::size_t>(divergence)]
          : std::string();
  const std::string line_b =
      divergence >= 0 && static_cast<std::size_t>(divergence) < b.size()
          ? b[static_cast<std::size_t>(divergence)]
          : std::string();

  if (divergence < 0) {
    std::printf("identical: %zu events\n", a.size());
  } else {
    std::printf("first divergence at event %lld\n", divergence);
    std::printf("  a: %s\n", line_a.empty() ? "<end of log>" : line_a.c_str());
    std::printf("  b: %s\n", line_b.empty() ? "<end of log>" : line_b.c_str());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "dsp_report: cannot open %s\n", json_path.c_str());
      return 2;
    }
    out << "{\"report\":\"diff\",\"a\":\"" << obs::json_escape(a_path)
        << "\",\"b\":\"" << obs::json_escape(b_path)
        << "\",\"events_a\":" << a.size() << ",\"events_b\":" << b.size()
        << ",\"divergence\":" << divergence << ",\"line_a\":\""
        << obs::json_escape(line_a) << "\",\"line_b\":\""
        << obs::json_escape(line_b) << "\"}\n";
    out.close();  // flushes: a full disk shows up only here
    if (!out) {
      std::fprintf(stderr, "dsp_report: cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  return divergence < 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <log.jsonl> [--json <out.json>]\n"
               "       %s diff <a.jsonl> <b.jsonl> [--json <out.json>]\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace dsp

int main(int argc, char** argv) {
  std::vector<std::string> pos;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) return dsp::usage(argv[0]);
      json_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return dsp::usage(argv[0]);
    } else {
      pos.push_back(arg);
    }
  }

  if (pos.size() == 3 && pos[0] == "diff") {
    const int status = dsp::run_diff(pos[1], pos[2], json_path);
    return dsp::flush_stdout("dsp_report") ? status : 2;
  }
  if (pos.size() != 1) return dsp::usage(argv[0]);

  const dsp::obs::EventParseResult parsed = dsp::obs::read_event_log(pos[0]);
  if (!parsed.ok()) {
    std::fprintf(stderr, "dsp_report: %s: %s\n", pos[0].c_str(),
                 parsed.error.c_str());
    return 2;
  }
  const dsp::RunReport report = dsp::analyze(parsed.events);
  dsp::print_text(report);
  if (!json_path.empty() && !dsp::write_json_report(report, pos[0], json_path))
    return 2;
  return dsp::flush_stdout("dsp_report") ? 0 : 2;
}
