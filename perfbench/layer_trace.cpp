#include "layer_trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <utility>

#include "obs/metrics.h"
#include "scenarios/standard.h"

namespace perfbench {

const char* call_name(Call c) {
  switch (c) {
    case Call::kSchedule:
      return "schedule";
    case Call::kSelectNext:
      return "select_next";
    case Call::kOnEpoch:
      return "on_epoch";
  }
  return "?";
}

Clock::time_point CallRecorder::enter() {
  child_s_.push_back(0.0);
  return Clock::now();
}

void CallRecorder::leave(Call c, Clock::time_point start,
                         std::uint64_t outcome) {
  const double d = seconds_between(start, Clock::now());
  const double children = child_s_.back();
  child_s_.pop_back();
  CallLedger& l = ledgers_[static_cast<std::size_t>(c)];
  ++l.calls;
  l.total_s += d;
  l.self_s += d - children;
  l.outcomes += outcome;
  samples_s_[static_cast<std::size_t>(c)].push_back(d);
  if (child_s_.empty()) {
    outermost_s_ += d;
  } else {
    child_s_.back() += d;
  }
}

namespace {

/// Forwards every Scheduler virtual to `inner`, timing schedule and
/// select_next. name and hoards_slots must forward faithfully: the engine
/// reads them, and hoarding changes what a dependency-blind run does.
class TracedScheduler final : public dsp::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<dsp::Scheduler> inner, CallRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  const char* name() const override { return inner_->name(); }
  bool hoards_slots() const override { return inner_->hoards_slots(); }

  std::vector<dsp::TaskPlacement> schedule(const std::vector<dsp::JobId>& jobs,
                                           dsp::Engine& engine) override {
    const Clock::time_point t0 = rec_.enter();
    std::vector<dsp::TaskPlacement> placements = inner_->schedule(jobs, engine);
    rec_.leave(Call::kSchedule, t0, placements.size());
    return placements;
  }

  dsp::Gid select_next(int node, dsp::Engine& engine,
                       const std::vector<std::uint8_t>& excluded) override {
    const Clock::time_point t0 = rec_.enter();
    const dsp::Gid g = inner_->select_next(node, engine, excluded);
    rec_.leave(Call::kSelectNext, t0, g == dsp::kInvalidGid ? 1 : 0);
    return g;
  }

 private:
  std::unique_ptr<dsp::Scheduler> inner_;
  CallRecorder& rec_;
};

/// Forwards every PreemptionPolicy virtual to `inner`, timing on_epoch.
/// checkpoint_mode must forward faithfully: SRPT restarts from scratch.
class TracedPolicy final : public dsp::PreemptionPolicy {
 public:
  TracedPolicy(std::unique_ptr<dsp::PreemptionPolicy> inner, CallRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  const char* name() const override { return inner_->name(); }
  dsp::CheckpointMode checkpoint_mode() const override {
    return inner_->checkpoint_mode();
  }

  void on_epoch(dsp::Engine& engine) override {
    const std::uint64_t before = engine.preemptions_so_far();
    const Clock::time_point t0 = rec_.enter();
    inner_->on_epoch(engine);
    const std::uint64_t after = engine.preemptions_so_far();
    rec_.leave(Call::kOnEpoch, t0, after == before ? 1 : 0);
  }

 private:
  std::unique_ptr<dsp::PreemptionPolicy> inner_;
  CallRecorder& rec_;
};

}  // namespace

std::unique_ptr<dsp::Scheduler> BenchFactory::make_scheduler(
    const dsp::ScenarioSpec& spec) const {
  setup_done_ = Clock::now();
  std::unique_ptr<dsp::Scheduler> s = inner_.make_scheduler(spec);
  if (recorder_ == nullptr || s == nullptr) return s;
  return std::make_unique<TracedScheduler>(std::move(s), *recorder_);
}

std::unique_ptr<dsp::PreemptionPolicy> BenchFactory::make_policy(
    const dsp::ScenarioSpec& spec) const {
  std::unique_ptr<dsp::PreemptionPolicy> p = inner_.make_policy(spec);
  if (recorder_ != nullptr && p != nullptr)
    p = std::make_unique<TracedPolicy>(std::move(p), *recorder_);
  run_start_ = Clock::now();
  return p;
}

ScenarioRun measure_scenario(const dsp::ScenarioSpec& spec, bool traced) {
  ScenarioRun r;
  dsp::obs::MetricsRegistry& registry = dsp::obs::default_registry();
  registry.reset();
  const dsp::StandardScenarioFactory standard;
  const BenchFactory factory(standard, traced ? &r.calls : nullptr);
  r.start = Clock::now();
  r.metrics = dsp::run_scenario(spec, factory);
  r.end = Clock::now();
  r.setup_done = factory.setup_done();
  r.run_start = factory.run_start();
  r.events = registry.counter("engine.events")->value();
  const dsp::obs::Histo::Snapshot priority =
      registry.histogram("priority.compute_all_s")->snapshot();
  r.priority_calls = priority.count;
  r.priority_s = priority.sum;
  return r;
}

std::uint32_t SpanLog::open(std::string name, std::uint32_t parent,
                            Clock::time_point start) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = std::move(name);
  s.start_s = seconds_between(origin_, start);
  s.end_s = s.start_s;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::close(std::uint32_t id, Clock::time_point end) {
  at(id).end_s = seconds_between(origin_, end);
}

void SpanLog::attach_calls(std::uint32_t id, const CallRecorder& recorder) {
  Span& s = at(id);
  s.traced = true;
  for (std::size_t k = 0; k < kCallKinds; ++k)
    s.calls[k] = recorder.ledger(static_cast<Call>(k));
  s.outermost_calls_s = recorder.outermost_s();
}

void SpanLog::write_json(std::ostream& out) const {
  std::vector<double> child_s(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) child_s[s.parent] += s.end_s - s.start_s;

  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ',';
    out << "\n{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":";
    dsp::obs::write_json_string(out, s.name);
    out << ",\"start_s\":";
    write_json_double(out, s.start_s);
    out << ",\"end_s\":";
    write_json_double(out, s.end_s);
    out << ",\"self_s\":";
    write_json_double(out, s.end_s - s.start_s - child_s[s.id] -
                               s.outermost_calls_s);
    if (s.traced) {
      out << ",\"calls\":{";
      for (std::size_t k = 0; k < kCallKinds; ++k) {
        const CallLedger& l = s.calls[k];
        if (k > 0) out << ',';
        out << '"' << call_name(static_cast<Call>(k)) << "\":{\"calls\":"
            << l.calls << ",\"total_s\":";
        write_json_double(out, l.total_s);
        out << ",\"self_s\":";
        write_json_double(out, l.self_s);
        out << ",\"outcomes\":" << l.outcomes << '}';
      }
      out << '}';
    }
    out << '}';
  }
  out << "\n]}\n";
}

void write_json_double(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

Percentiles percentiles(std::vector<double>& samples) {
  Percentiles p;
  const std::size_t n = samples.size();
  if (n == 0) return p;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of all at or below.
  const auto rank = [&](double q) {
    const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return samples[std::clamp<std::size_t>(r, 1, n) - 1];
  };
  p.p50 = rank(0.5);
  p.tail_pct = 50.0;
  p.tail = p.p50;
  for (const double pct : {90.0, 99.0, 99.9, 99.99, 99.999}) {
    const double beyond = static_cast<double>(n) * (1.0 - pct / 100.0);
    if (beyond + 1e-9 < 10.0) break;
    p.tail_pct = pct;
    p.tail = rank(pct / 100.0);
  }
  return p;
}

}  // namespace perfbench
