// Metrics registry: a closed catalogue of counters and histograms with
// cheap recording and JSON serialization.
//
// This is the accounting backbone of the observability layer (see
// DESIGN.md "Observability"): the engine, the preemption policy, the LP
// solvers and the scoped profiler record into the calling thread's
// current registry, and every bench binary can dump it with --json to
// seed the perf trajectory.
//
// Every piece of registry state belongs to one thread. A thread records
// into its own registry unless a RegistryScope redirects it; the
// scenario grid gives each cell its own registry that way and merges
// them into the caller's in grid order after the join. Counters are
// plain integers and histograms plain fields, so the DSP_COUNT /
// DSP_OBSERVE / DSP_PROFILE macros cost one thread-local pointer load
// plus a plain add (a thread's first record also binds the pointer to
// its own registry): the metric name resolves to a catalogue index at
// compile time, and a name outside the catalogue fails to build.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string_view>
#include <vector>

namespace dsp::obs {

/// Writes `s` as a JSON string literal (quotes + escapes) to `out`.
void write_json_string(std::ostream& out, std::string_view s);

/// Writes a double as a JSON number; non-finite values become null.
void write_json_number(std::ostream& out, double v);

/// Every counter the code records, sorted so JSON keys come out sorted.
inline constexpr std::string_view kCounterNames[] = {
    "engine.events",      "engine.runs",        "lp.milp_nodes",
    "lp.warm_start_fast", "lp.warm_start_hit",  "lp.warm_start_miss",
    "preempt.blocked_c2", "preempt.fired",      "preempt.no_victim",
    "preempt.suppressed_pp",
};

/// Every histogram the code records (DSP_PROFILE scopes are listed in
/// obs/profiler.h), sorted like kCounterNames.
inline constexpr std::string_view kHistogramNames[] = {
    "engine.epoch_s",     "engine.run_s",           "lp.milp_solve_s",
    "lp.simplex_solve_s", "priority.compute_all_s", "priority.job_s",
    "sched.round_s",
};

static_assert(std::ranges::is_sorted(kCounterNames));
static_assert(std::ranges::is_sorted(kHistogramNames));

inline constexpr std::size_t kCounterCount = std::size(kCounterNames);
inline constexpr std::size_t kHistogramCount = std::size(kHistogramNames);

/// Catalogue index of a metric, resolved at compile time.
struct CounterId {
  std::size_t index;
};
struct HistogramId {
  std::size_t index;
};

/// Throwing during constant evaluation is a compile error, so a name
/// outside the catalogue does not build.
consteval CounterId counter_id(std::string_view name) {
  for (std::size_t i = 0; i < kCounterCount; ++i)
    if (kCounterNames[i] == name) return {i};
  throw "unknown counter name: add it to kCounterNames";
}

consteval HistogramId histogram_id(std::string_view name) {
  for (std::size_t i = 0; i < kHistogramCount; ++i)
    if (kHistogramNames[i] == name) return {i};
  throw "unknown histogram name: add it to kHistogramNames";
}

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Sample distribution with count/sum/min/max and p50/p95/p99.
///
/// Keeps up to `max_samples` raw samples for percentile estimation; once
/// full, new samples overwrite the oldest, so percentiles over very long
/// streams are computed from the most recent window while
/// count/sum/min/max stay exact. Non-finite samples (NaN/inf) are
/// rejected: they would poison min/max/sum and percentile sorting.
class Histo {
 public:
  static constexpr std::size_t kDefaultMaxSamples = 8192;

  explicit Histo(std::size_t max_samples = kDefaultMaxSamples)
      : max_samples_(max_samples ? max_samples : 1) {}

  void add(double x);

  /// Adds `other`'s aggregates exactly and feeds its retained samples
  /// into this window, oldest first: merging the histograms of
  /// consecutive streams keeps the window a serial recording would.
  void merge(const Histo& other);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  Snapshot snapshot() const;

  void reset();

 private:
  /// Puts `x` into the window, overwriting the oldest sample when full.
  void keep(double x);

  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<double> samples_;
  std::size_t oldest_ = 0;  // oldest sample's slot once the window is full
  std::size_t max_samples_;
};

/// One counter and one histogram per catalogue name. Metric addresses are
/// stable for the registry's lifetime; reset() zeroes them in place.
class MetricsRegistry {
 public:
  Counter& counter(CounterId id) { return counters_[id.index]; }
  Histo& histogram(HistogramId id) { return histograms_[id.index]; }

  /// By-name lookup: null when `name` is not in the catalogue.
  Counter* counter(std::string_view name);
  Histo* histogram(std::string_view name);

  /// Adds every metric of `other` into this registry (Histo::merge).
  void merge(const MetricsRegistry& other);

  /// Serializes the registry as one JSON object:
  ///   {"counters":{...},
  ///    "histograms":{name:{count,sum,min,max,mean,p50,p95,p99}}}
  /// Only metrics that recorded something appear; keys are sorted, so
  /// output is deterministic for a given state.
  void to_json(std::ostream& out) const;

  /// Zeroes every metric in place.
  void reset();

 private:
  std::array<Counter, kCounterCount> counters_;
  std::array<Histo, kHistogramCount> histograms_;
};

namespace detail {
/// The registry the calling thread records into; null until the thread
/// first records, which binds it to the thread's own registry.
inline constinit thread_local MetricsRegistry* t_current = nullptr;
MetricsRegistry& bind_thread_registry();
}  // namespace detail

/// The calling thread's current registry: the innermost open
/// RegistryScope's, or else the thread's own.
inline MetricsRegistry& default_registry() {
  MetricsRegistry* r = detail::t_current;
  if (r == nullptr) [[unlikely]]
    r = &detail::bind_thread_registry();
  return *r;
}

/// Redirects the calling thread's recording into `registry` until the
/// scope closes, then restores the previous target.
class RegistryScope {
 public:
  explicit RegistryScope(MetricsRegistry& registry)
      : previous_(detail::t_current) {
    detail::t_current = &registry;
  }
  ~RegistryScope() { detail::t_current = previous_; }

  RegistryScope(const RegistryScope&) = delete;
  RegistryScope& operator=(const RegistryScope&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace dsp::obs

/// Adds `n` to the named counter in the current registry.
#define DSP_COUNT_N(name, n)                 \
  (::dsp::obs::default_registry()            \
       .counter(::dsp::obs::counter_id(name)) \
       .add(n))

#define DSP_COUNT(name) DSP_COUNT_N(name, 1)

/// Records one sample into the named histogram in the current registry.
#define DSP_OBSERVE(name, v)                     \
  (::dsp::obs::default_registry()                \
       .histogram(::dsp::obs::histogram_id(name)) \
       .add(v))
