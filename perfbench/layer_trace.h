// Timing of the simulator's layers from outside the program.
//
// The benchmark never edits src/. It measures a scenario by handing
// run_scenario() a ScenarioFactory decorator (BenchFactory) that notes
// when set-up ends (make_scheduler is entered: the cluster and the
// workload exist) and when the run starts (make_policy returns). In the
// traced run the factory also wraps the Scheduler and PreemptionPolicy it
// builds in forwarding decorators that count and time the three calls the
// engine makes into them: schedule, select_next and on_epoch.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/policy.h"
#include "sim/scenario.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The engine-facing calls the traced run decorates.
enum class Call : std::uint8_t { kSchedule, kSelectNext, kOnEpoch };
inline constexpr std::size_t kCallKinds = 3;
const char* call_name(Call c);

/// Totals of one kind of decorated call over one traced scenario run.
struct CallLedger {
  std::uint64_t calls = 0;
  double total_s = 0.0;  ///< Inclusive duration.
  double self_s = 0.0;   ///< Minus decorated calls nested inside.
  /// schedule: tasks placed; select_next: calls that returned
  /// kInvalidGid; on_epoch: epochs after which preemptions_so_far() had
  /// not moved.
  std::uint64_t outcomes = 0;
};

/// Accumulates decorated-call timings of one scenario run. Calls may
/// nest (an on_epoch that migrates a task fills slots through
/// select_next), so each call's self time excludes its decorated
/// children, and `outermost_s` counts only calls made by the engine
/// itself.
class CallRecorder {
 public:
  Clock::time_point enter();
  void leave(Call c, Clock::time_point start, std::uint64_t outcome);

  const CallLedger& ledger(Call c) const {
    return ledgers_[static_cast<std::size_t>(c)];
  }
  /// One duration per call, in call order.
  const std::vector<double>& samples_s(Call c) const {
    return samples_s_[static_cast<std::size_t>(c)];
  }
  /// Seconds inside decorated calls that no other decorated call encloses.
  double outermost_s() const { return outermost_s_; }

 private:
  std::array<CallLedger, kCallKinds> ledgers_;
  std::array<std::vector<double>, kCallKinds> samples_s_;
  std::vector<double> child_s_;  ///< Per open call: time of its children.
  double outermost_s_ = 0.0;
};

/// Decorates the factory run_scenario() builds policies through. Without
/// a recorder the policies are returned unwrapped (the untraced run).
class BenchFactory final : public dsp::ScenarioFactory {
 public:
  BenchFactory(const dsp::ScenarioFactory& inner, CallRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  std::unique_ptr<dsp::Scheduler> make_scheduler(
      const dsp::ScenarioSpec& spec) const override;
  std::unique_ptr<dsp::PreemptionPolicy> make_policy(
      const dsp::ScenarioSpec& spec) const override;

  /// When make_scheduler was entered: the end of set-up.
  Clock::time_point setup_done() const { return setup_done_; }
  /// When make_policy returned: the start of the timed run.
  Clock::time_point run_start() const { return run_start_; }

 private:
  const dsp::ScenarioFactory& inner_;
  CallRecorder* recorder_;
  // The factory interface is const; these only observe the calls.
  mutable Clock::time_point setup_done_{};
  mutable Clock::time_point run_start_{};
};

/// One run_scenario call with the standard factory, timed at the
/// factory's boundaries. The default registry is reset first, so the
/// registry-derived fields cover this scenario alone.
struct ScenarioRun {
  dsp::RunMetrics metrics;
  Clock::time_point start{};       ///< run_scenario called.
  Clock::time_point setup_done{};  ///< make_scheduler entered.
  Clock::time_point run_start{};   ///< make_policy returned.
  Clock::time_point end{};         ///< run_scenario returned.
  std::uint64_t events = 0;        ///< Registry "engine.events".
  std::uint64_t priority_calls = 0;  ///< "priority.compute_all_s" count.
  double priority_s = 0.0;           ///< ... and its sum.
  CallRecorder calls;  ///< Empty unless traced.

  double setup_s() const { return seconds_between(start, setup_done); }
  double run_s() const { return seconds_between(run_start, end); }
};

ScenarioRun measure_scenario(const dsp::ScenarioSpec& spec, bool traced);

/// One node of the benchmark's span tree: workload -> repetition ->
/// scenario -> setup | run. The decorated calls under a run are kept as
/// per-kind aggregates (a scenario makes up to a few hundred thousand),
/// not as individual spans.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root.
  std::string name;
  double start_s = 0.0;  ///< Seconds since the benchmark started.
  double end_s = 0.0;
  /// Set only on traced run spans.
  bool traced = false;
  std::array<CallLedger, kCallKinds> calls{};
  double outermost_calls_s = 0.0;
};

/// In-memory span store, written out once when the benchmark ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::uint32_t open(std::string name, std::uint32_t parent,
                     Clock::time_point start);
  void close(std::uint32_t id, Clock::time_point end);
  /// Attaches a traced run's call totals to a span.
  void attach_calls(std::uint32_t id, const CallRecorder& recorder);

  /// {"spans":[{id,parent,name,start_s,end_s,self_s[,calls]}...]}. Self
  /// time is the duration minus the child spans' and outermost calls'.
  void write_json(std::ostream& out) const;

 private:
  Span& at(std::uint32_t id) { return spans_[id - 1]; }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Writes `v` as a JSON number that reads back bit-identical (non-finite
/// values become null).
void write_json_double(std::ostream& out, double v);

/// A value the metrics report as a percentile: the sample count beside
/// the highest percentile with at least ten samples beyond it.
struct Percentiles {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
/// Sorts `samples` in place.
Percentiles percentiles(std::vector<double>& samples);

}  // namespace perfbench
