#include "trace/trace_io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "util/csv.h"

namespace dsp {
namespace {

constexpr const char* kHeader =
    "job_id,task_index,size_mi,cpu,mem,disk,bw,arrival_us,deadline_us,"
    "size_class,tier,parents,input_mb,input_nodes";

std::optional<double> parse_double(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (!end || *end != '\0' || end == s.c_str()) return std::nullopt;
  return v;
}

std::optional<long long> parse_int(const std::string& s) {
  long long v = 0;
  const auto* b = s.data();
  const auto* e = s.data() + s.size();
  const auto res = std::from_chars(b, e, v);
  if (res.ec != std::errc{} || res.ptr != e) return std::nullopt;
  return v;
}

std::optional<JobSize> parse_size_class(const std::string& s) {
  if (s == "small") return JobSize::kSmall;
  if (s == "medium") return JobSize::kMedium;
  if (s == "large") return JobSize::kLarge;
  return std::nullopt;
}

std::optional<JobTier> parse_tier(const std::string& s) {
  if (s == "production") return JobTier::kProduction;
  if (s == "research") return JobTier::kResearch;
  return std::nullopt;
}

/// Raw rows of one job before assembly.
struct PendingTask {
  TaskIndex index;
  Task task;
  std::vector<TaskIndex> parents;
};

struct PendingJob {
  JobId id = kInvalidJob;
  SimTime arrival = 0;
  SimTime deadline = kMaxTime;
  JobSize size_class = JobSize::kSmall;
  JobTier tier = JobTier::kProduction;
  std::vector<PendingTask> tasks;
};

void assemble(PendingJob&& pending, double reference_rate, JobSet& jobs,
              std::vector<std::string>& errors) {
  Job job(pending.id, pending.tasks.size());
  job.set_arrival(pending.arrival);
  job.set_deadline(pending.deadline);
  job.set_size_class(pending.size_class);
  job.set_tier(pending.tier);
  for (const auto& pt : pending.tasks) {
    if (pt.index >= job.task_count()) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "job %u: task index %u out of range [0,%zu)",
                    pending.id, pt.index, job.task_count());
      errors.emplace_back(buf);
      return;
    }
    Task& t = job.task(pt.index);
    t.size_mi = pt.task.size_mi;
    t.demand = pt.task.demand;
    t.input_mb = pt.task.input_mb;
    t.input_nodes = pt.task.input_nodes;
    for (TaskIndex p : pt.parents) {
      if (p >= job.task_count() || p == pt.index) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "job %u: bad parent %u for task %u",
                      pending.id, p, pt.index);
        errors.emplace_back(buf);
        return;
      }
      job.add_dependency(p, pt.index);
    }
  }
  if (!job.finalize(reference_rate)) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "job %u: dependency graph is cyclic", pending.id);
    errors.emplace_back(buf);
    return;
  }
  jobs.push_back(std::move(job));
}

}  // namespace

void write_trace_csv(std::ostream& out, const JobSet& jobs) {
  out << kHeader << '\n';
  CsvWriter writer(out);
  char buf[64];
  for (const auto& job : jobs) {
    for (TaskIndex j = 0; j < job.task_count(); ++j) {
      const Task& t = job.task(j);
      std::vector<std::string> row;
      row.push_back(std::to_string(job.id()));
      row.push_back(std::to_string(j));
      std::snprintf(buf, sizeof buf, "%.6g", t.size_mi);
      row.emplace_back(buf);
      std::snprintf(buf, sizeof buf, "%.6g", t.demand.cpu);
      row.emplace_back(buf);
      std::snprintf(buf, sizeof buf, "%.6g", t.demand.mem);
      row.emplace_back(buf);
      std::snprintf(buf, sizeof buf, "%.6g", t.demand.disk);
      row.emplace_back(buf);
      std::snprintf(buf, sizeof buf, "%.6g", t.demand.bw);
      row.emplace_back(buf);
      row.push_back(std::to_string(job.arrival()));
      row.push_back(std::to_string(job.deadline()));
      row.emplace_back(to_string(job.size_class()));
      row.emplace_back(to_string(job.tier()));
      std::string parents;
      for (TaskIndex p : job.graph().finalized()
                             ? job.graph().parents(j)
                             : std::span<const TaskIndex>{}) {
        if (!parents.empty()) parents += ';';
        parents += std::to_string(p);
      }
      row.push_back(std::move(parents));
      std::snprintf(buf, sizeof buf, "%.6g", t.input_mb);
      row.emplace_back(buf);
      std::string input_nodes;
      for (int n : t.input_nodes) {
        if (!input_nodes.empty()) input_nodes += ';';
        input_nodes += std::to_string(n);
      }
      row.push_back(std::move(input_nodes));
      writer.write(row);
    }
  }
}

bool write_trace_csv(const std::string& path, const JobSet& jobs) {
  std::ofstream out(path);
  if (!out) return false;
  write_trace_csv(out, jobs);
  return static_cast<bool>(out);
}

TraceParseResult read_trace_csv(std::istream& in, double reference_rate) {
  TraceParseResult result;
  if (!std::isfinite(reference_rate) || !(reference_rate > 0.0)) {
    // Job::finalize would fail every job, and each failure would read as
    // a cyclic graph.
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "reference rate %g MIPS must be finite and > 0",
                  reference_rate);
    result.errors.emplace_back(buf);
    return result;
  }
  CsvReader reader(in);
  std::vector<std::string> fields;
  bool saw_header = false;
  std::optional<PendingJob> current;

  auto fail = [&](const char* what) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "line %zu: %s", reader.line_number(), what);
    result.errors.emplace_back(buf);
  };

  while (reader.next(fields)) {
    if (!saw_header) {
      saw_header = true;
      if (!fields.empty() && fields[0] == "job_id") continue;  // header row
      // else: headerless file; fall through and parse as data.
    }
    // 12 fields = legacy format; 14 adds the locality extension.
    if (fields.size() != 12 && fields.size() != 14) {
      fail("expected 12 or 14 fields");
      continue;
    }
    const auto job_id = parse_int(fields[0]);
    const auto task_index = parse_int(fields[1]);
    const auto size_mi = parse_double(fields[2]);
    const auto cpu = parse_double(fields[3]);
    const auto mem = parse_double(fields[4]);
    const auto disk = parse_double(fields[5]);
    const auto bw = parse_double(fields[6]);
    const auto arrival = parse_int(fields[7]);
    const auto deadline = parse_int(fields[8]);
    const auto size_class = parse_size_class(fields[9]);
    const auto tier = parse_tier(fields[10]);
    if (!job_id || !task_index || !size_mi || !cpu || !mem || !disk || !bw ||
        !arrival || !deadline || !size_class || !tier) {
      fail("malformed field");
      continue;
    }
    const auto id = static_cast<JobId>(*job_id);
    if (!current || current->id != id) {
      if (current)
        assemble(std::move(*current), reference_rate, result.jobs, result.errors);
      current.emplace();
      current->id = id;
      current->arrival = *arrival;
      current->deadline = *deadline;
      current->size_class = *size_class;
      current->tier = *tier;
    }
    PendingTask pt;
    pt.index = static_cast<TaskIndex>(*task_index);
    pt.task.size_mi = *size_mi;
    pt.task.demand = Resources{*cpu, *mem, *disk, *bw};
    // Parse ';'-separated parent list.
    const std::string& plist = fields[11];
    std::size_t pos = 0;
    bool bad_parent = false;
    while (pos < plist.size()) {
      const auto next_sep = plist.find(';', pos);
      const auto token = plist.substr(pos, next_sep == std::string::npos
                                               ? std::string::npos
                                               : next_sep - pos);
      const auto p = parse_int(token);
      if (!p) {
        fail("malformed parent list");
        bad_parent = true;
        break;
      }
      pt.parents.push_back(static_cast<TaskIndex>(*p));
      if (next_sep == std::string::npos) break;
      pos = next_sep + 1;
    }
    if (bad_parent) continue;
    if (fields.size() == 14) {
      const auto input_mb = parse_double(fields[12]);
      if (!input_mb) {
        fail("malformed input_mb");
        continue;
      }
      pt.task.input_mb = *input_mb;
      const std::string& nlist = fields[13];
      std::size_t npos = 0;
      bool bad_node = false;
      while (npos < nlist.size()) {
        const auto sep = nlist.find(';', npos);
        const auto token = nlist.substr(
            npos, sep == std::string::npos ? std::string::npos : sep - npos);
        const auto node = parse_int(token);
        if (!node) {
          fail("malformed input_nodes");
          bad_node = true;
          break;
        }
        pt.task.input_nodes.push_back(static_cast<int>(*node));
        if (sep == std::string::npos) break;
        npos = sep + 1;
      }
      if (bad_node) continue;
    }
    current->tasks.push_back(std::move(pt));
  }
  if (current)
    assemble(std::move(*current), reference_rate, result.jobs, result.errors);
  return result;
}

TraceParseResult read_trace_csv(const std::string& path, double reference_rate) {
  std::ifstream in(path);
  if (!in) {
    TraceParseResult result;
    result.errors.push_back("cannot open file: " + path);
    return result;
  }
  return read_trace_csv(in, reference_rate);
}

}  // namespace dsp
