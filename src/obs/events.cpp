#include "obs/events.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>

#include "obs/json.h"
#include "util/env.h"
#include "util/log.h"

namespace dsp::obs {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kRunInfo: return "run_info";
    case EventKind::kJobArrival: return "job_arrival";
    case EventKind::kJobPlanned: return "job_planned";
    case EventKind::kJobComplete: return "job_complete";
    case EventKind::kTaskEnqueue: return "task_enqueue";
    case EventKind::kTaskDispatch: return "task_dispatch";
    case EventKind::kTaskFinish: return "task_finish";
    case EventKind::kTaskPreempt: return "task_preempt";
    case EventKind::kTaskMigrate: return "task_migrate";
    case EventKind::kHoardStart: return "hoard_start";
    case EventKind::kHoardEvict: return "hoard_evict";
    case EventKind::kPreemptDecision: return "preempt_decision";
    case EventKind::kNodeDown: return "node_down";
    case EventKind::kNodeUp: return "node_up";
    case EventKind::kNodeRate: return "node_rate";
    case EventKind::kEpoch: return "epoch";
    case EventKind::kScheduleRound: return "schedule_round";
    case EventKind::kDeltaAdapt: return "delta_adapt";
  }
  return "?";
}

bool parse_event_kind(std::string_view s, EventKind& out) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const auto k = static_cast<EventKind>(i);
    if (s == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

namespace {

/// Ids serialize as -1 when unset so the JSONL stays integer-typed.
long long id_or_minus1(std::uint32_t v) {
  return v == ~std::uint32_t{0} ? -1 : static_cast<long long>(v);
}

// kPreemptDecision flag layout: bit 0 urgent pass, bit 1 PP filter
// enabled, bits 2-3 the PreemptOutcome.
constexpr std::uint8_t kDecisionUrgent = 1;
constexpr std::uint8_t kDecisionPP = 2;
constexpr int kDecisionOutcomeShift = 2;

}  // namespace

Event decision_event(const PreemptDecision& d, std::uint32_t job) {
  return {.time = d.time,
          .kind = EventKind::kPreemptDecision,
          .flags = static_cast<std::uint8_t>(
              (d.urgent ? kDecisionUrgent : 0) | (d.pp ? kDecisionPP : 0) |
              (static_cast<int>(d.outcome) << kDecisionOutcomeShift)),
          .job = job,
          .task = d.candidate,
          .task2 = d.victim,
          .node = static_cast<std::int16_t>(d.node),
          .a = d.candidate_priority,
          .b = d.victim_priority,
          .gap = d.normalized_gap,
          .rho = d.rho};
}

PreemptDecision decision_of(const Event& e) {
  return {.time = e.time,
          .node = e.node,
          .candidate = e.task,
          .victim = e.task2,
          .candidate_priority = e.a,
          .victim_priority = e.b,
          .normalized_gap = e.gap,
          .rho = e.rho,
          .urgent = (e.flags & kDecisionUrgent) != 0,
          .pp = (e.flags & kDecisionPP) != 0,
          .outcome = static_cast<PreemptOutcome>(
              (e.flags >> kDecisionOutcomeShift) & 0x3)};
}

void EventLog::append_jsonl(const Event& e, std::string& out) {
  // One line lands in a stack buffer first, then appends to `out` in a
  // single call: at ~10^5-10^7 events per run the dozen per-field
  // std::string grow checks are measurable against the <5% end-to-end
  // overhead budget. Worst case per line is ~320 bytes (14 field names,
  // two 20-char integers, four 24-char doubles).
  char buf[384];
  char* p = buf;
  const auto lit = [&p](std::string_view s) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  };
  const auto num = [&p](long long v) {
    p = std::to_chars(p, p + 24, v).ptr;
  };
  const auto dbl = [&](double v) {
    if (!std::isfinite(v)) {
      lit("null");  // matches write_json_number's convention
      return;
    }
    if (v >= -9.0e15 && v <= 9.0e15) {  // in long long range: cast defined
      const auto i = static_cast<long long>(v);
      if (static_cast<double>(i) == v) {
        num(i);  // integral payloads (counts, ordinals) print as integers
        return;
      }
    }
    p = std::to_chars(p, p + 32, v).ptr;  // shortest round-trip
  };
  lit("{\"t\":");
  num(static_cast<long long>(e.time));
  lit(",\"seq\":");
  num(static_cast<long long>(e.seq));
  lit(",\"epoch\":");
  num(static_cast<long long>(e.epoch));
  lit(",\"kind\":\"");
  lit(to_string(e.kind));  // fixed [a-z_] identifiers: nothing to escape
  lit("\",\"flags\":");
  num(static_cast<long long>(e.flags));
  lit(",\"job\":");
  num(id_or_minus1(e.job));
  lit(",\"task\":");
  num(id_or_minus1(e.task));
  lit(",\"task2\":");
  num(id_or_minus1(e.task2));
  lit(",\"node\":");
  num(e.node);
  lit(",\"node2\":");
  num(e.node2);
  lit(",\"a\":");
  dbl(e.a);
  lit(",\"b\":");
  dbl(e.b);
  if (e.kind == EventKind::kPreemptDecision) {
    lit(",\"gap\":");
    dbl(e.gap);
    lit(",\"rho\":");
    dbl(e.rho);
  }
  lit("}\n");
  out.append(buf, static_cast<std::size_t>(p - buf));
}

EventLog::~EventLog() { close_sink(); }

void EventLog::note_sink_failure(const char* what) {
  if (sink_ok_)
    DSP_ERROR("event log: cannot %s sink %s", what, sink_path_.c_str());
  sink_ok_ = false;
}

void EventLog::flush_sink() {
  if (!line_buf_.empty() &&
      std::fwrite(line_buf_.data(), 1, line_buf_.size(), sink_) !=
          line_buf_.size())
    note_sink_failure("write");
  line_buf_.clear();
}

bool EventLog::open_sink(const std::string& path) {
  close_sink();
  sink_path_ = path;
  sink_ = std::fopen(path.c_str(), "wb");
  if (sink_ == nullptr) {
    DSP_ERROR("event log: cannot open sink %s", path.c_str());
    return false;
  }
  return true;
}

bool EventLog::close_sink() {
  if (sink_ == nullptr) return true;
  flush_sink();
  if (std::fclose(sink_) != 0) note_sink_failure("close");
  sink_ = nullptr;
  const bool ok = sink_ok_;
  sink_ok_ = true;
  return ok;
}

void EventLog::emit(const Event& input) {
  Event e = input;
  e.seq = next_seq_++;
  if (consumer_) consumer_(e);
  if (sink_ != nullptr) {
    // Lines accumulate in line_buf_ and flush in ~32 KiB batches: one
    // fwrite per few hundred events instead of one per event keeps the
    // recorder-on overhead of an end-to-end run in the low percent.
    append_jsonl(e, line_buf_);
    if (line_buf_.size() >= kSinkFlushBytes) flush_sink();
  }
}

std::unique_ptr<EventLog> EventLog::from_env() {
  const std::string path = env_string("DSP_EVENT_LOG", "");
  if (path.empty()) return nullptr;
  auto log = std::make_unique<EventLog>();
  if (!log->open_sink(path)) return nullptr;
  return log;
}

namespace {

// Exclusive upper bounds of the integer fields' types, as doubles.
constexpr double kTwo32 = 4294967296.0;
constexpr double kTwo63 = 9223372036854775808.0;
constexpr double kTwo64 = 18446744073709551616.0;
constexpr double kNodeLimit =
    std::numeric_limits<decltype(Event::node)>::max() + 1.0;

/// One parsed line's fields, each checked against its range; the first
/// failure is reported as "line N: ...".
class LineReader {
 public:
  LineReader(const json::Value& rec, std::size_t line, std::string& error)
      : rec_(rec), line_(line), error_(error) {}

  /// A double payload; null (a serialized non-finite value) reads as 0.
  bool payload(const char* key, double& out) {
    const json::Value* v = rec_.find(key);
    if (v != nullptr && v->kind == json::Value::Kind::kNull) {
      out = 0.0;
      return true;
    }
    if (!number(key, v)) return false;
    out = v->number;
    return true;
  }

  /// An integer field in [lo, hi); null is rejected.
  template <typename T>
  bool integer(const char* key, double lo, double hi, T& out) {
    const json::Value* v = rec_.find(key);
    if (!number(key, v)) return false;
    const double x = v->number;
    if (std::trunc(x) != x || x < lo || x >= hi) {
      char got[32];
      *std::to_chars(got, got + sizeof got - 1, x).ptr = '\0';
      return fail(std::string("\"") + key +
                  "\" is not an integer in its range: " + got);
    }
    out = static_cast<T>(x);
    return true;
  }

  /// An id stored as uint32 with -1 meaning unset (~0, which is
  /// therefore not a valid id itself).
  bool id(const char* key, std::uint32_t& out) {
    long long v = 0;
    if (!integer(key, -1.0, kTwo32 - 1.0, v)) return false;
    out = v < 0 ? ~std::uint32_t{0} : static_cast<std::uint32_t>(v);
    return true;
  }

  /// A node id: -1 (unset) or a non-negative Event::node value.
  bool node(const char* key, std::int16_t& out) {
    return integer(key, -1.0, kNodeLimit, out);
  }

  bool fail(const std::string& message) {
    error_ = "line " + std::to_string(line_) + ": " + message;
    return false;
  }

 private:
  bool number(const char* key, const json::Value* v) {
    if (v != nullptr && v->is_number()) return true;
    return fail(std::string("missing or non-numeric \"") + key + "\"");
  }

  const json::Value& rec_;
  std::size_t line_;
  std::string& error_;
};

}  // namespace

EventParseResult read_event_log(std::istream& in) {
  EventParseResult result;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::Value rec;
    std::string parse_error;
    LineReader r(rec, line_no, result.error);
    if (!json::parse(line, rec, &parse_error)) {
      r.fail("invalid JSON: " + parse_error);
      return result;
    }
    const json::Value* kind = rec.find("kind");
    Event e;
    if (kind == nullptr || !kind->is_string() ||
        !parse_event_kind(kind->string, e.kind)) {
      r.fail("missing or unknown \"kind\"");
      return result;
    }
    if (!r.integer("t", -kTwo63, kTwo63, e.time) ||
        !r.integer("seq", 0.0, kTwo64, e.seq) ||
        !r.integer("epoch", 0.0, kTwo32, e.epoch) ||
        !r.integer("flags", 0.0, 256.0, e.flags) || !r.id("job", e.job) ||
        !r.id("task", e.task) || !r.id("task2", e.task2) ||
        !r.node("node", e.node) || !r.node("node2", e.node2) ||
        !r.payload("a", e.a) || !r.payload("b", e.b))
      return result;
    if (e.kind == EventKind::kPreemptDecision &&
        (!r.payload("gap", e.gap) || !r.payload("rho", e.rho)))
      return result;
    result.events.push_back(e);
  }
  return result;
}

EventParseResult read_event_log(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    EventParseResult result;
    result.error = "cannot open file: " + path;
    return result;
  }
  return read_event_log(in);
}

}  // namespace dsp::obs
