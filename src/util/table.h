// Console table rendering for benchmark harness output.
//
// The figure benches print the same series the paper plots; a fixed-width
// table keeps them diff-able run to run and greppable by the EXPERIMENTS.md
// tooling.
#pragma once

#include <string>
#include <vector>

namespace dsp {

/// A simple column-aligned text table with an optional title.
///
/// Usage:
///   Table t{"Fig 5(a): makespan (s) vs #jobs, real cluster"};
///   t.set_header({"jobs", "DSP", "Aalo", ...});
///   t.add_row({"150", "812.4", ...});
///   std::cout << t.render();
class Table {
 public:
  Table() = default;
  explicit Table(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> cells) { header_ = std::move(cells); }
  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  /// Number of data rows added so far.
  std::size_t row_count() const { return rows_.size(); }

  /// Renders the table with aligned columns and a separator under the header.
  std::string render() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision (fixed notation).
std::string fmt(double v, int precision = 2);

/// Formats an integer count.
std::string fmt_count(long long v);

}  // namespace dsp
