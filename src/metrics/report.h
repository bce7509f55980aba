// Reporting helpers: turn RunMetrics grids into the tables the paper plots.
//
// Each figure bench produces a MetricSeries — methods x sweep-points — and
// renders one table per metric, with rows matching the paper's x-axis
// (number of jobs) and columns matching its legend (methods).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/run_metrics.h"
#include "util/table.h"

namespace dsp {

/// A grid of run results: one row per sweep point, one column per method.
class MetricSeries {
 public:
  MetricSeries(std::vector<std::string> methods, std::vector<long long> xs,
               std::string x_label = "jobs");

  /// Stores the result for (method index, sweep index).
  /// Throws std::out_of_range when either index is outside the grid.
  void set(std::size_t method, std::size_t x, RunMetrics metrics);

  /// Throws std::out_of_range when either index is outside the grid.
  const RunMetrics& at(std::size_t method, std::size_t x) const;
  const std::vector<std::string>& methods() const { return methods_; }
  const std::vector<long long>& xs() const { return xs_; }
  const std::string& x_label() const { return x_label_; }

  /// Renders one metric as a table, e.g.
  ///   table("Fig 5(a) makespan (s)", [](auto& m){ return
  ///   to_seconds(m.makespan); });
  Table table(const std::string& title,
              const std::function<double(const RunMetrics&)>& extract,
              int precision = 2) const;

  /// Convenience tables for the paper's standard metrics.
  Table makespan_table(const std::string& title) const;
  Table throughput_table(const std::string& title) const;
  Table disorders_table(const std::string& title) const;
  Table waiting_table(const std::string& title) const;
  Table preemptions_table(const std::string& title) const;

 private:
  std::vector<std::string> methods_;
  std::vector<long long> xs_;
  std::string x_label_;
  std::vector<RunMetrics> grid_;  // row-major: x index * methods + method
};

/// One-line human summary of a run (examples use this).
std::string summarize(const RunMetrics& m);

/// Per-size-class breakdown (small/medium/large): job count, mean
/// completion time, mean task wait, deadline hit rate. Built from
/// RunMetrics::job_records.
Table job_class_table(const RunMetrics& m, const std::string& title);

/// Writes one run's metrics as a flat JSON object (makespan, throughput,
/// waiting, preemption-outcome counters, failures, locality, overheads).
void write_json(std::ostream& out, const RunMetrics& m);

/// Writes a series as {"x_label","methods","xs","cells":[{method,x,...}]}.
void write_json(std::ostream& out, const MetricSeries& s);

}  // namespace dsp
