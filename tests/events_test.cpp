// Flight recorder tests: JSONL schema round-trip, seq stamping, the
// consumer against the sink, sink write failures and the engine's emit
// wiring.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dsp_scheduler.h"
#include "core/preemption.h"
#include "obs/events.h"
#include "obs/json.h"
#include "sim/engine.h"
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

WorkloadConfig contended_config(std::size_t jobs) {
  WorkloadConfig cfg;
  cfg.job_count = jobs;
  cfg.task_scale = 0.01;
  cfg.cpu_max = 2.0;
  cfg.mem_max = 1.8;
  cfg.min_arrival_rate = 30.0;
  cfg.max_arrival_rate = 40.0;
  return cfg;
}

// ---------------------------------------------------------------------
// EventLog unit behavior
// ---------------------------------------------------------------------

TEST(EventLogTest, AppendJsonlMatchesSchema) {
  obs::Event e{.time = 1500000,
               .seq = 7,
               .epoch = 3,
               .kind = obs::EventKind::kTaskDispatch,
               .flags = obs::kEventFlagHoardActivate,
               .job = 2,
               .task = 41,
               .node = 5,
               .a = 0.25};
  std::string line;
  obs::EventLog::append_jsonl(e, line);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  obs::json::Value rec;
  std::string error;
  ASSERT_TRUE(obs::json::parse(line, rec, &error)) << error;
  EXPECT_EQ(rec.find("t")->number, 1500000.0);
  EXPECT_EQ(rec.find("seq")->number, 7.0);
  EXPECT_EQ(rec.find("epoch")->number, 3.0);
  EXPECT_EQ(rec.find("kind")->string, "task_dispatch");
  EXPECT_EQ(rec.find("flags")->number, 1.0);
  EXPECT_EQ(rec.find("job")->number, 2.0);
  EXPECT_EQ(rec.find("task")->number, 41.0);
  EXPECT_EQ(rec.find("task2")->number, -1.0);  // unset ids serialize as -1
  EXPECT_EQ(rec.find("node")->number, 5.0);
  EXPECT_EQ(rec.find("node2")->number, -1.0);
  EXPECT_EQ(rec.find("a")->number, 0.25);
  EXPECT_EQ(rec.find("b")->number, 0.0);
}

TEST(EventLogTest, NonFinitePayloadSerializesAsNull) {
  obs::Event e{.kind = obs::EventKind::kEpoch, .a = NAN, .b = 1.0 / 0.0};
  std::string line;
  obs::EventLog::append_jsonl(e, line);
  EXPECT_NE(line.find("\"a\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"b\":null"), std::string::npos) << line;

  // The reader maps null payloads back to 0.
  std::istringstream in(line);
  const obs::EventParseResult parsed = obs::read_event_log(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].a, 0.0);
  EXPECT_EQ(parsed.events[0].b, 0.0);
}

TEST(EventLogTest, EmitStampsDenseSequenceInEmitOrder) {
  obs::EventLog log;
  std::vector<obs::Event> seen;
  log.set_consumer([&seen](const obs::Event& e) { seen.push_back(e); });
  for (int i = 0; i < 10; ++i)
    log.emit({.time = i, .seq = 99, .kind = obs::EventKind::kTaskFinish,
              .task = static_cast<Gid>(i)});
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].seq, i);  // emit overwrites any caller-set seq
    EXPECT_EQ(seen[i].task, static_cast<Gid>(i));
  }
}

TEST(EventLogTest, SinkRoundTripsThroughReader) {
  const std::string path =
      ::testing::TempDir() + "/events_sink_round_trip.jsonl";
  {
    obs::EventLog log;
    ASSERT_TRUE(log.open_sink(path));
    log.emit({.time = 10, .kind = obs::EventKind::kJobArrival, .job = 1,
              .a = 5.0});
    log.emit({.time = 20, .kind = obs::EventKind::kTaskDispatch, .job = 1,
              .task = 3, .node = 2, .a = 0.125});
    log.emit({.time = 30, .kind = obs::EventKind::kTaskMigrate, .task = 3,
              .node = 2, .node2 = 4});
    EXPECT_TRUE(log.close_sink());  // flushes the batched lines
  }
  const obs::EventParseResult parsed = obs::read_event_log(path);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.events.size(), 3u);
  EXPECT_EQ(parsed.events[0].kind, obs::EventKind::kJobArrival);
  EXPECT_EQ(parsed.events[1].a, 0.125);
  EXPECT_EQ(parsed.events[2].node2, 4);
  std::remove(path.c_str());
}

TEST(EventLogTest, ReaderNamesTheBadLine) {
  std::istringstream in(
      "{\"t\":1,\"seq\":0,\"epoch\":0,\"kind\":\"epoch\",\"flags\":0,"
      "\"job\":-1,\"task\":-1,\"task2\":-1,\"node\":-1,\"node2\":-1,"
      "\"a\":0,\"b\":0}\n"
      "not json\n");
  const obs::EventParseResult parsed = obs::read_event_log(in);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("line 2"), std::string::npos) << parsed.error;
}

/// A valid task_dispatch line with one field's value replaced verbatim.
std::string dispatch_line_with(const std::string& key,
                               const std::string& value) {
  std::map<std::string, std::string> fields = {
      {"t", "1500000"}, {"seq", "7"},  {"epoch", "3"}, {"flags", "1"},
      {"job", "2"},     {"task", "41"}, {"task2", "-1"}, {"node", "5"},
      {"node2", "-1"},  {"a", "0.25"}, {"b", "0"}};
  fields[key] = value;
  std::string line = "{\"kind\":\"task_dispatch\"";
  for (const auto& [k, v] : fields) line += ",\"" + k + "\":" + v;
  return line + "}";
}

TEST(EventLogTest, ReaderRejectsOutOfRangeAndNonIntegralFields) {
  // Each of these used to read back silently wrapped, truncated, cast out
  // of range or zeroed; the reader must name the line and the field.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"node", "40000"},     {"flags", "300"}, {"task", "1.5"},
      {"job", "4294967296"}, {"t", "null"},    {"node", "null"},
      {"node", "-2"},        {"seq", "-1"},    {"epoch", "4294967296"},
      {"t", "1e300"}};
  for (const auto& [key, value] : bad) {
    std::istringstream in(dispatch_line_with("a", "1") + "\n" +
                          dispatch_line_with(key, value) + "\n");
    const obs::EventParseResult parsed = obs::read_event_log(in);
    EXPECT_FALSE(parsed.ok()) << key << "=" << value;
    EXPECT_NE(parsed.error.find("line 2"), std::string::npos) << parsed.error;
    EXPECT_NE(parsed.error.find("\"" + key + "\""), std::string::npos)
        << parsed.error;
  }
}

TEST(EventLogTest, ReaderAcceptsFieldLimits) {
  std::istringstream in(dispatch_line_with("node", "32767") + "\n" +
                        dispatch_line_with("job", "4294967294") + "\n" +
                        dispatch_line_with("flags", "255") + "\n" +
                        dispatch_line_with("a", "null") + "\n");
  const obs::EventParseResult parsed = obs::read_event_log(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.events.size(), 4u);
  EXPECT_EQ(parsed.events[0].node, 32767);
  EXPECT_EQ(parsed.events[1].job, 4294967294u);
  EXPECT_EQ(parsed.events[2].flags, 255);
  EXPECT_EQ(parsed.events[3].a, 0.0);
}

TEST(EventLogTest, DecisionLineRequiresGapAndRho) {
  obs::PreemptDecision d;
  d.node = 1;
  d.candidate = 4;
  d.candidate_priority = 2.5;
  d.normalized_gap = 0.75;
  d.rho = 0.5;
  std::string line;
  obs::EventLog::append_jsonl(obs::decision_event(d, 0), line);
  EXPECT_NE(line.find(",\"gap\":0.75,\"rho\":0.5}"), std::string::npos)
      << line;
  for (const std::string key : {"gap", "rho"}) {
    const std::string field = ",\"" + key + "\":" +
                              (key == "gap" ? "0.75" : "0.5");
    std::string stripped = line;
    stripped.erase(stripped.find(field), field.size());
    std::istringstream in(stripped);
    const obs::EventParseResult parsed = obs::read_event_log(in);
    EXPECT_FALSE(parsed.ok()) << stripped;
    EXPECT_NE(parsed.error.find("line 1"), std::string::npos) << parsed.error;
    EXPECT_NE(parsed.error.find(key), std::string::npos) << parsed.error;
  }
  // Other kinds neither write nor need the two keys.
  std::string epoch;
  obs::EventLog::append_jsonl({.kind = obs::EventKind::kEpoch, .gap = 1.0},
                              epoch);
  EXPECT_EQ(epoch.find("gap"), std::string::npos) << epoch;
}

TEST(EventLogTest, UnwritableSinkFailsClose) {
  // /dev/full accepts the open and fails every write with ENOSPC.
  obs::EventLog log;
  if (!log.open_sink("/dev/full")) {
    GTEST_SKIP() << "no /dev/full";
  }
  std::string line;
  obs::EventLog::append_jsonl({.kind = obs::EventKind::kTaskDispatch}, line);
  const std::size_t events = 2 * 32 * 1024 / line.size() + 1;
  for (std::size_t i = 0; i < events; ++i)
    log.emit({.time = static_cast<SimTime>(i),
              .kind = obs::EventKind::kTaskDispatch});
  EXPECT_FALSE(log.close_sink());
}

// ---------------------------------------------------------------------
// Engine wiring
// ---------------------------------------------------------------------

/// One contended run with the recorder attached; returns the stream the
/// consumer saw, and streams it to `sink_path` too when that is set.
std::vector<obs::Event> record_run(std::uint64_t seed,
                                   const std::string& sink_path = "") {
  const JobSet jobs = WorkloadGenerator(contended_config(8), seed).generate();
  DspScheduler sched;
  DspPreemption policy;
  Engine engine(ClusterSpec::uniform(2, 1800.0, 2.0, 2), jobs, sched, &policy,
                fast_params());
  std::vector<obs::Event> seen;
  obs::EventLog log;
  log.set_consumer([&seen](const obs::Event& e) { seen.push_back(e); });
  if (!sink_path.empty()) {
    EXPECT_TRUE(log.open_sink(sink_path));
  }
  engine.set_event_log(&log);
  engine.run();
  EXPECT_TRUE(log.close_sink());
  return seen;
}

TEST(EngineEventsTest, RunEmitsCoherentStream) {
  const std::vector<obs::Event> events = record_run(331);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, obs::EventKind::kRunInfo);

  std::map<obs::EventKind, std::size_t> counts;
  SimTime last_time = -1;
  std::uint64_t expect_seq = 0;
  for (const obs::Event& e : events) {
    ++counts[e.kind];
    EXPECT_GE(e.time, last_time);  // sim time is monotone
    last_time = e.time;
    EXPECT_EQ(e.seq, expect_seq++);  // seq is dense
  }

  const std::size_t total_tasks =
      static_cast<std::size_t>(events.front().task);
  EXPECT_EQ(counts[obs::EventKind::kJobArrival], 8u);
  EXPECT_EQ(counts[obs::EventKind::kJobComplete], 8u);
  // Every task finishes exactly once; dispatches >= finishes because
  // preempted tasks re-dispatch.
  EXPECT_EQ(counts[obs::EventKind::kTaskFinish], total_tasks);
  EXPECT_GE(counts[obs::EventKind::kTaskDispatch], total_tasks);
  EXPECT_GT(counts[obs::EventKind::kEpoch], 0u);
  EXPECT_GT(counts[obs::EventKind::kScheduleRound], 0u);
  // The contended cluster forces Algorithm-1 activity.
  EXPECT_GT(counts[obs::EventKind::kPreemptDecision], 0u);
}

TEST(EngineEventsTest, ConsumerSeesExactlyWhatTheSinkWrites) {
  const std::string path = ::testing::TempDir() + "/events_consumer_sink.jsonl";
  const std::vector<obs::Event> seen = record_run(331, path);
  const obs::EventParseResult parsed = obs::read_event_log(path);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.events.size(), seen.size());
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    // Compare through the JSONL encoding: every field the sink writes,
    // seq included, must match what the consumer was handed.
    std::string from_consumer, from_file;
    obs::EventLog::append_jsonl(seen[i], from_consumer);
    obs::EventLog::append_jsonl(parsed.events[i], from_file);
    ASSERT_EQ(from_consumer, from_file) << "event " << i;
    EXPECT_EQ(seen[i].seq, i);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dsp
