// Tests for the observability layer: metrics registry (catalogue
// lookups, merge, registry scopes), histogram percentiles, preemption
// decision events (engine integration), Chrome trace export, the JSON
// parser, and the profiler macro.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dsp_system.h"
#include "core/preemption.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_export.h"
#include "sim/recorder.h"
#include "test_util.h"
#include "trace/workload.h"

namespace dsp {
namespace {

EngineParams fast_params() {
  EngineParams p;
  p.period = 1 * kSecond;
  p.epoch = 500 * kMillisecond;
  return p;
}

JobSet contended_workload(std::size_t jobs, std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.job_count = jobs;
  cfg.task_scale = 0.01;
  cfg.cpu_max = 2.0;
  cfg.mem_max = 1.8;
  cfg.min_arrival_rate = 30.0;
  cfg.max_arrival_rate = 40.0;
  return WorkloadGenerator(cfg, seed).generate();
}

ClusterSpec tight_cluster() { return ClusterSpec::uniform(2, 1800.0, 2.0, 2); }

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, CountersAddPlainly) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter(obs::counter_id("engine.events"));
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsRegistryTest, ByNameLookupFindsWhatTheMacrosWrite) {
  obs::MetricsRegistry reg;
  const obs::RegistryScope scope(reg);
  DSP_COUNT_N("preempt.fired", 3);
  DSP_OBSERVE("engine.run_s", 0.5);
  ASSERT_NE(reg.counter("preempt.fired"), nullptr);
  EXPECT_EQ(reg.counter("preempt.fired"),
            &reg.counter(obs::counter_id("preempt.fired")));
  EXPECT_EQ(reg.counter("preempt.fired")->value(), 3u);
  ASSERT_NE(reg.histogram("engine.run_s"), nullptr);
  EXPECT_EQ(reg.histogram("engine.run_s")->snapshot().count, 1u);
  // Every catalogue name resolves; anything else is null.
  for (const std::string_view name : obs::kCounterNames)
    EXPECT_NE(reg.counter(name), nullptr) << name;
  for (const std::string_view name : obs::kHistogramNames)
    EXPECT_NE(reg.histogram(name), nullptr) << name;
  EXPECT_EQ(reg.counter("no.such_counter"), nullptr);
  EXPECT_EQ(reg.histogram("no.such_histogram"), nullptr);
  EXPECT_EQ(reg.counter("engine.run_s"), nullptr);  // a histogram's name
}

TEST(MetricsRegistryTest, NestedScopesRestoreThePreviousRegistry) {
  obs::MetricsRegistry& own = obs::default_registry();
  const std::uint64_t own_before =
      own.counter(obs::counter_id("engine.runs")).value();
  obs::MetricsRegistry outer;
  obs::MetricsRegistry inner;
  {
    const obs::RegistryScope outer_scope(outer);
    EXPECT_EQ(&obs::default_registry(), &outer);
    {
      const obs::RegistryScope inner_scope(inner);
      EXPECT_EQ(&obs::default_registry(), &inner);
      DSP_COUNT("engine.runs");
    }
    EXPECT_EQ(&obs::default_registry(), &outer);
    DSP_COUNT_N("engine.runs", 2);
  }
  EXPECT_EQ(&obs::default_registry(), &own);
  EXPECT_EQ(inner.counter("engine.runs")->value(), 1u);
  EXPECT_EQ(outer.counter("engine.runs")->value(), 2u);
  EXPECT_EQ(own.counter("engine.runs")->value(), own_before);
}

TEST(MetricsRegistryTest, HistogramPercentilesOnKnownData) {
  obs::Histo h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  // Linear interpolation over 100 sorted samples (same convention as
  // util/stats): p = q * (n - 1).
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);
  EXPECT_NEAR(s.p99, 99.01, 1e-9);
}

TEST(MetricsRegistryTest, HistogramRingKeepsExactAggregates) {
  obs::Histo h(/*max_samples=*/4);
  for (int i = 1; i <= 10; ++i) h.add(i);
  const auto s = h.snapshot();
  // count/sum/min/max stay exact even though only 4 samples are retained.
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.sum, 55.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  // Percentiles come from the retained window {7, 8, 9, 10}.
  EXPECT_NEAR(s.p50, 8.5, 1e-9);
}

TEST(MetricsRegistryTest, EmptyHistogramSnapshotIsAllZero) {
  obs::Histo h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  // Percentiles of nothing are 0, not NaN — report tables render them.
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(MetricsRegistryTest, SingleSampleHistogramPercentilesCollapse) {
  obs::Histo h;
  h.add(3.25);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 3.25);
  EXPECT_DOUBLE_EQ(s.max, 3.25);
  EXPECT_DOUBLE_EQ(s.mean, 3.25);
  EXPECT_DOUBLE_EQ(s.p50, 3.25);
  EXPECT_DOUBLE_EQ(s.p95, 3.25);
  EXPECT_DOUBLE_EQ(s.p99, 3.25);
}

TEST(MetricsRegistryTest, HistogramRejectsNonFiniteSamples) {
  obs::Histo h;
  h.add(1.0);
  h.add(std::nan(""));
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(2.0);
  const auto s = h.snapshot();
  // The non-finite samples are dropped entirely: they would poison
  // min/max/sum and the percentile sort.
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.sum, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
}

TEST(MetricsRegistryTest, MergeKeepsAggregatesExact) {
  obs::Histo a(/*max_samples=*/4);
  obs::Histo b(/*max_samples=*/4);
  for (int i = 1; i <= 10; ++i) a.add(i);
  for (int i = 11; i <= 13; ++i) b.add(i);
  b.add(-5.0);
  a.merge(b);
  const auto s = a.snapshot();
  EXPECT_EQ(s.count, 14u);
  EXPECT_DOUBLE_EQ(s.sum, 55.0 + 36.0 - 5.0);
  EXPECT_DOUBLE_EQ(s.min, -5.0);
  EXPECT_DOUBLE_EQ(s.max, 13.0);
  // b's retained samples entered the window oldest first, as if they had
  // been recorded after a's: the window is {11, 12, 13, -5}.
  EXPECT_NEAR(s.p50, 11.5, 1e-9);

  // Merging into an empty histogram copies; merging an empty one is a
  // no-op.
  obs::Histo empty;
  empty.merge(a);
  EXPECT_EQ(empty.snapshot().count, 14u);
  EXPECT_DOUBLE_EQ(empty.snapshot().min, -5.0);
  a.merge(obs::Histo());
  EXPECT_EQ(a.snapshot().count, 14u);

  obs::MetricsRegistry total;
  obs::MetricsRegistry cell;
  total.counter(obs::counter_id("lp.milp_nodes")).add(2);
  cell.counter(obs::counter_id("lp.milp_nodes")).add(5);
  cell.histogram(obs::histogram_id("lp.milp_solve_s")).add(0.25);
  total.merge(cell);
  EXPECT_EQ(total.counter("lp.milp_nodes")->value(), 7u);
  EXPECT_EQ(total.histogram("lp.milp_solve_s")->snapshot().count, 1u);
  EXPECT_DOUBLE_EQ(total.histogram("lp.milp_solve_s")->snapshot().sum, 0.25);
}

TEST(MetricsRegistryTest, ResetZeroesInPlace) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.counter("engine.runs");
  obs::Histo* h = reg.histogram("engine.run_s");
  c->add(5);
  h->add(1.0);
  reg.reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->snapshot().count, 0u);
  EXPECT_EQ(reg.counter("engine.runs"), c);
  EXPECT_EQ(reg.histogram("engine.run_s"), h);
}

TEST(MetricsRegistryTest, JsonRoundTripsThroughParser) {
  obs::MetricsRegistry reg;
  reg.counter("preempt.fired")->add(3);
  reg.histogram("sched.round_s")->add(2.0);
  std::ostringstream os;
  reg.to_json(os);

  obs::json::Value root;
  std::string error;
  ASSERT_TRUE(obs::json::parse(os.str(), root, &error)) << error;
  // Metrics that recorded nothing are left out.
  ASSERT_NE(root.find("counters"), nullptr);
  EXPECT_EQ(root.find("counters")->object.size(), 1u);
  ASSERT_NE(root.find("histograms"), nullptr);
  EXPECT_EQ(root.find("histograms")->object.size(), 1u);
  const auto* fired = root.find("counters")->find("preempt.fired");
  ASSERT_NE(fired, nullptr);
  EXPECT_DOUBLE_EQ(fired->number, 3.0);
  const auto* round = root.find("histograms")->find("sched.round_s");
  ASSERT_NE(round, nullptr);
  ASSERT_NE(round->find("count"), nullptr);
  EXPECT_DOUBLE_EQ(round->find("count")->number, 1.0);
  ASSERT_NE(round->find("p50"), nullptr);
  EXPECT_DOUBLE_EQ(round->find("p50")->number, 2.0);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  obs::json::Value v;
  EXPECT_FALSE(obs::json::parse("{", v));
  EXPECT_FALSE(obs::json::parse("{\"a\":1,}", v));
  EXPECT_FALSE(obs::json::parse("[1, 2] trailing", v));
  EXPECT_TRUE(obs::json::parse(" {\"a\": [1, true, null, \"x\"]} ", v));
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->array.size(), 4u);
}

TEST(JsonParserTest, RejectsMalformedEscapes) {
  obs::json::Value v;
  std::string error;
  EXPECT_FALSE(obs::json::parse(R"("\q")", v, &error));  // unknown escape
  EXPECT_NE(error.find("escape"), std::string::npos) << error;
  EXPECT_FALSE(obs::json::parse(R"("\u12")", v));    // truncated \u
  EXPECT_FALSE(obs::json::parse(R"("\u12zz")", v));  // non-hex \u
  EXPECT_FALSE(obs::json::parse("\"\\\"", v));       // dangling backslash
  EXPECT_FALSE(obs::json::parse("\"tab\there\"", v));  // raw control char
  EXPECT_TRUE(obs::json::parse(R"("A\n\t\\")", v));
  EXPECT_EQ(v.string, "A\n\t\\");
}

TEST(JsonParserTest, RejectsTruncatedDocuments) {
  obs::json::Value v;
  for (const char* doc :
       {"", "  ", "{\"a\":", "{\"a\"", "[1, 2", "[1,", "\"unterminated",
        "tru", "nul", "-", "{\"a\": {\"b\": [1}"}) {
    std::string error;
    EXPECT_FALSE(obs::json::parse(doc, v, &error))
        << "accepted truncated document: " << doc;
    EXPECT_NE(error.find("offset"), std::string::npos) << error;
  }
}

TEST(JsonEscapeTest, RoundTripsThroughParser) {
  // Every hand-rolled JSON writer in obs/ routes strings through
  // json_escape; hostile content must survive a parse round-trip.
  const std::string hostile[] = {
      "plain",
      "with \"quotes\" and \\backslashes\\",
      "line\nbreaks\r\nand\ttabs",
      std::string("embedded\x01" "control\x1f" " chars"),
      "trailing backslash \\",
      "",
  };
  for (const std::string& s : hostile) {
    const std::string doc = "{\"k\":\"" + obs::json_escape(s) + "\"}";
    obs::json::Value root;
    std::string error;
    ASSERT_TRUE(obs::json::parse(doc, root, &error)) << doc << ": " << error;
    const obs::json::Value* k = root.find("k");
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->string, s) << doc;
  }
}

TEST(JsonEscapeTest, WriteJsonStringMatchesEscapeHelper) {
  // write_json_string is the stream-facing wrapper over the same escaper.
  std::ostringstream os;
  obs::write_json_string(os, "a\"b\\c\nd");
  EXPECT_EQ(os.str(), "\"" + obs::json_escape("a\"b\\c\nd") + "\"");
}

TEST(JsonParserTest, RejectsDeepNestingInsteadOfOverflowing) {
  // 257 levels exceeds the parser's 256-level cap; the hostile version of
  // this document (100k levels) must be a parse error, not a stack
  // overflow.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  obs::json::Value v;
  EXPECT_TRUE(obs::json::parse(nested(256), v));
  std::string error;
  EXPECT_FALSE(obs::json::parse(nested(257), v, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  EXPECT_FALSE(obs::json::parse(nested(100000), v, &error));

  // Mixed object/array nesting shares the same cap.
  std::string mixed;
  for (int i = 0; i < 200; ++i) mixed += "{\"k\":[";
  EXPECT_FALSE(obs::json::parse(mixed, v, &error));
}

TEST(ProfilerTest, ScopedTimerFeedsHistogram) {
  obs::Histo h;
  {
    obs::ScopedTimer timer(h);
  }
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.min, 0.0);
}

TEST(ProfilerTest, ProfileMacroRecordsIntoCurrentRegistry) {
  obs::MetricsRegistry reg;
  const obs::RegistryScope scope(reg);
  {
    DSP_PROFILE("sched.round_s");
  }
  EXPECT_EQ(reg.histogram("sched.round_s")->snapshot().count, 1u);
}

// ---------------------------------------------------------------------
// Preemption decision events
// ---------------------------------------------------------------------

/// Runs DSP on the contended cluster and returns the run's metrics plus
/// every Algorithm-1 decision decoded from its event stream.
std::pair<RunMetrics, std::vector<obs::PreemptDecision>> run_decisions(
    DspPreemption& policy) {
  DspScheduler sched;
  Engine engine(tight_cluster(), contended_workload(8, 101), sched, &policy,
                fast_params());
  std::vector<obs::PreemptDecision> decisions;
  obs::EventLog log;
  log.set_consumer([&decisions](const obs::Event& e) {
    if (e.kind == obs::EventKind::kPreemptDecision)
      decisions.push_back(obs::decision_of(e));
  });
  engine.set_event_log(&log);
  const RunMetrics m = engine.run();
  return {m, decisions};
}

std::uint64_t count(const std::vector<obs::PreemptDecision>& decisions,
                    obs::PreemptOutcome outcome) {
  return static_cast<std::uint64_t>(
      std::count_if(decisions.begin(), decisions.end(),
                    [outcome](const auto& d) { return d.outcome == outcome; }));
}

TEST(DecisionEventTest, EngineStreamMatchesRunMetrics) {
  DspPreemption policy;
  const auto [m, decisions] = run_decisions(policy);

  // Every Algorithm-1 evaluation lands in both the stream and RunMetrics.
  EXPECT_EQ(decisions.size(), m.preempt_evaluations);
  EXPECT_EQ(count(decisions, obs::PreemptOutcome::kFired), m.preemptions);
  EXPECT_EQ(count(decisions, obs::PreemptOutcome::kSuppressedPP),
            m.suppressed_preemptions);
  EXPECT_EQ(count(decisions, obs::PreemptOutcome::kBlockedByDependency),
            m.preempt_blocked_dependency);
  EXPECT_EQ(count(decisions, obs::PreemptOutcome::kNoVictim),
            m.preempt_no_victim);
  EXPECT_GT(decisions.size(), 0u);

  // Records carry the parameters in effect and a sane shape.
  for (const auto& d : decisions) {
    EXPECT_GE(d.node, 0);
    EXPECT_NE(d.candidate, kInvalidGid);
    EXPECT_DOUBLE_EQ(d.rho, policy.params().rho);
    EXPECT_TRUE(d.pp);
    if (d.outcome == obs::PreemptOutcome::kFired ||
        d.outcome == obs::PreemptOutcome::kSuppressedPP) {
      EXPECT_NE(d.victim, kInvalidGid);
    }
    if (d.outcome == obs::PreemptOutcome::kNoVictim) {
      EXPECT_EQ(d.victim, kInvalidGid);
    }
  }
}

TEST(DecisionEventTest, PpDisabledRecordsNoSuppression) {
  // With PP disabled no decision may end in a PP suppression, and the
  // suppression tally that record_preempt_decision keeps stays at zero.
  DspParams params;
  params.normalized_pp = false;
  DspPreemption policy(params);
  const auto [m, decisions] = run_decisions(policy);
  EXPECT_GT(decisions.size(), 0u);
  EXPECT_EQ(m.suppressed_preemptions, 0u);
  EXPECT_EQ(count(decisions, obs::PreemptOutcome::kSuppressedPP), 0u);
}

// ---------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------

TEST(ChromeTraceTest, ExportsLoadableStructure) {
  DspPreemption policy;
  DspScheduler sched;
  Engine engine(tight_cluster(), contended_workload(6, 77), sched, &policy,
                fast_params());
  TimelineRecorder recorder;
  const auto log = testing::recorder_log(recorder);
  engine.set_event_log(log.get());
  engine.run();
  ASSERT_FALSE(recorder.intervals().empty());

  std::ostringstream os;
  obs::write_chrome_trace(os, recorder, engine.node_count());

  obs::json::Value root;
  std::string error;
  ASSERT_TRUE(obs::json::parse(os.str(), root, &error)) << error;
  const auto* unit = root.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");
  const auto* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t complete = 0, metadata = 0, instants = 0;
  for (const auto& e : events->array) {
    const auto* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    if (ph->string == "X") {
      ++complete;
      // Complete events need name/tid/ts/dur; ts and dur are in
      // microseconds == SimTime units.
      EXPECT_NE(e.find("name"), nullptr);
      EXPECT_NE(e.find("tid"), nullptr);
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_GE(e.find("dur")->number, 0.0);
    } else if (ph->string == "M") {
      ++metadata;
      EXPECT_EQ(e.find("name")->string, "process_name");
    } else if (ph->string == "i") {
      ++instants;
    }
  }
  // One interval event per recorded interval; one metadata record per
  // node plus the cluster-instants pseudo-process.
  EXPECT_EQ(complete, recorder.intervals().size());
  EXPECT_EQ(metadata, engine.node_count() + 1);
  // Scheduling rounds + epochs + job completions all become instants.
  EXPECT_EQ(instants, recorder.rounds().size() + recorder.epochs().size() +
                          recorder.job_completions().size());
}

}  // namespace
}  // namespace dsp
