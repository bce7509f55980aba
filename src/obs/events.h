// Flight recorder: the event stream of one simulation run, covering
// every externally meaningful transition — job arrivals and
// completions, task dispatch/finish/preempt/migrate, hoarding,
// Algorithm-1 preempt decisions, node failures and rate changes,
// scheduling rounds, epoch boundaries and delta adaptation.
//
// This is the engine's only observation channel. The engine (and,
// through Engine::emit_event, the policies) emit into an EventLog; an
// in-process consumer (set_consumer) sees every event as it is emitted,
// and when a JSONL sink is open (open_sink / DSP_EVENT_LOG) every event
// is also streamed as one JSON object per line. Consumers — the
// timeline recorder, the invariant checker, the audit replay, the
// Chrome trace, dsp_report — read either that hook or a recorded file
// (read_event_log). A run is serial — every emit point sits in the
// engine's event loop or in a policy's epoch — so a log belongs to one
// run on one thread, and the stream is a pure function of the run's
// inputs: same-seed runs, including the same scenario run by dsp_sweep
// at any --threads, write identical streams, and tools/dsp_report's
// first-divergence diff turns that determinism guarantee into a
// debuggable property.
//
// DSP_EVENT_LOG=<path> (read by EventLog::from_env, which simulate() is
// the only library function to call; the Engine, run_scenario() and the
// scenario grid record only into a log they are given) streams every
// event of a simulate() run to <path> as JSONL. Opening the sink
// truncates <path>, so each simulate() call replaces the previous run's
// stream; dsp_sweep --event-log-dir writes one file per scenario.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/types.h"
#include "util/time.h"

namespace dsp::obs {

/// What happened. Names (to_string) are the `kind` strings of the JSONL
/// schema.
enum class EventKind : std::uint8_t {
  kRunInfo,          ///< First event of a run: cluster + workload shape.
  kJobArrival,       ///< A job arrived (payload a: task count).
  kJobPlanned,       ///< The offline scheduler placed a job's tasks.
  kJobComplete,      ///< Every task of the job finished.
  kTaskEnqueue,      ///< Task entered a node's waiting queue.
  kTaskDispatch,     ///< Task began executing (payload a: overhead us).
  kTaskFinish,       ///< Task completed.
  kTaskPreempt,      ///< Task was suspended (preemption or node failure).
  kTaskMigrate,      ///< Task moved node -> node2 while queued.
  kHoardStart,       ///< Unready task blindly launched; slot hoarded.
  kHoardEvict,       ///< Hoarding task evicted by the timeout / failure.
  kPreemptDecision,  ///< One Algorithm-1 candidate evaluation.
  kNodeDown,         ///< Node failed.
  kNodeUp,           ///< Node recovered.
  kNodeRate,         ///< Node speed factor changed (payload a: factor).
  kEpoch,            ///< Online-preemption epoch boundary.
  kScheduleRound,    ///< Offline scheduling round (a: jobs, b: placements).
  kDeltaAdapt,       ///< Adaptive delta moved (a: old, b: new).
};

inline constexpr std::size_t kEventKindCount = 18;

const char* to_string(EventKind k);

/// Inverse of to_string; false when `s` names no kind.
bool parse_event_kind(std::string_view s, EventKind& out);

// Flag bits, meaningful per kind (stored in Event::flags).
inline constexpr std::uint8_t kEventFlagRequeue = 1;        ///< kTaskEnqueue: re-entry, not first placement.
inline constexpr std::uint8_t kEventFlagHoardActivate = 1;  ///< kTaskDispatch: a hoarded slot went live.
inline constexpr std::uint8_t kEventFlagKeptProgress = 1;   ///< kTaskPreempt: checkpointed work survives.
inline constexpr std::uint8_t kEventFlagFailover = 1;       ///< kTaskMigrate: forced by a node failure.
inline constexpr std::uint8_t kEventFlagDeadlineMet = 1;    ///< kJobComplete: finished by its deadline.
// kPreemptDecision flags are private to decision_event / decision_of.

/// One recorded event. POD by design: emit copies it with no
/// allocation. Field semantics vary by kind (see EventKind); unused
/// ids stay at their invalid defaults and serialize as -1.
struct Event {
  SimTime time = 0;          ///< Simulation time of the event (us).
  std::uint64_t seq = 0;     ///< Dense per-log sequence number (assigned by emit).
  std::uint32_t epoch = 0;   ///< Epoch ordinal at emit time (0 before the first).
  EventKind kind = EventKind::kRunInfo;
  std::uint8_t flags = 0;    ///< Per-kind flag bits (kEventFlag*).
  std::uint32_t job = ~std::uint32_t{0};  ///< JobId, or ~0 when n/a.
  Gid task = kInvalidGid;    ///< Primary task (candidate for decisions).
  Gid task2 = kInvalidGid;   ///< Secondary task (decision victim).
  std::int16_t node = -1;    ///< Primary node.
  std::int16_t node2 = -1;   ///< Secondary node (migration target).
  double a = 0.0;            ///< Per-kind payload (see EventKind).
  double b = 0.0;            ///< Per-kind payload (see EventKind).
  // kPreemptDecision only (other kinds neither write nor read them):
  double gap = 0.0;          ///< Normalized gap P-tilde the PP gate tested.
  double rho = 0.0;          ///< The PP threshold rho in effect.
};

/// How one Algorithm-1 candidate evaluation ended.
enum class PreemptOutcome : std::uint8_t {
  kFired,                ///< A victim was preempted.
  kSuppressedPP,         ///< The normalized-priority gap failed P-tilde > rho.
  kBlockedByDependency,  ///< Every viable victim failed C2 (candidate depends on it).
  kNoVictim,             ///< No running task passed C1 / nothing preemptable.
};

/// One Algorithm-1 candidate evaluation (paper §IV): the record a
/// preemption policy hands Engine::record_preempt_decision, and what a
/// kPreemptDecision event decodes back to. decision_event and
/// decision_of are the only code that knows how the fields map onto an
/// Event (and so onto a JSONL decision line).
struct PreemptDecision {
  SimTime time = 0;            ///< Engine time of the evaluation.
  int node = -1;               ///< Node whose queue was scanned.
  Gid candidate = kInvalidGid; ///< Waiting task that wanted the slot.
  Gid victim = kInvalidGid;    ///< Victim fired on / gap-tested (if any).
  double candidate_priority = 0.0;  ///< P-hat term: waiting task's priority.
  double victim_priority = 0.0;     ///< Victim's priority (0 when no victim).
  /// P-tilde = (candidate - victim priority) / P-bar; 0 when PP was not
  /// evaluated (no victim, PP disabled, or P-bar == 0).
  double normalized_gap = 0.0;
  double rho = 0.0;     ///< PP threshold in effect.
  bool urgent = false;  ///< True for the urgent pass (t^a <= epsilon or t^w >= tau).
  bool pp = false;      ///< True when the normalized-priority filter was enabled.
  PreemptOutcome outcome = PreemptOutcome::kNoVictim;
};

/// Encodes `d` as a kPreemptDecision event; `job` is the candidate's job
/// (~0 when there is no candidate).
Event decision_event(const PreemptDecision& d, std::uint32_t job);

/// Decodes a kPreemptDecision event (the inverse of decision_event).
PreemptDecision decision_of(const Event& e);

/// One run's event log: stamps each event's seq, hands it to the
/// optional in-process consumer, and appends it to the optional JSONL
/// sink. Written by one serial run, so it takes no lock.
class EventLog {
 public:
  EventLog() = default;
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Streams every subsequently emitted event to `path` (truncates).
  /// Returns false (and logs) when the file cannot be opened.
  bool open_sink(const std::string& path);

  /// Flushes and closes the sink. Returns false when a write or the
  /// close failed; the first failure is logged with the sink's path.
  bool close_sink();

  /// Installs the in-process consumer (replacing any previous one): it
  /// is called with every event passed to emit(), seq stamped. Set it
  /// before the first emit.
  using Consumer = std::function<void(const Event&)>;
  void set_consumer(Consumer consumer) { consumer_ = std::move(consumer); }

  /// Stamps `e`'s seq, hands it to the consumer, then appends it to the
  /// sink.
  void emit(const Event& e);

  /// Appends `e` as one JSONL line (including the trailing newline).
  static void append_jsonl(const Event& e, std::string& out);

  /// Builds a log from the environment: returns null when DSP_EVENT_LOG
  /// is unset or the sink cannot be opened.
  static std::unique_ptr<EventLog> from_env();

 private:
  /// Sink lines batch in line_buf_ up to this size before one fwrite.
  static constexpr std::size_t kSinkFlushBytes = 32 * 1024;

  void flush_sink();
  /// Logs the first failed write or close of the current sink.
  void note_sink_failure(const char* what);

  std::uint64_t next_seq_ = 0;
  Consumer consumer_;
  std::FILE* sink_ = nullptr;
  std::string sink_path_;
  std::string line_buf_;
  bool sink_ok_ = true;
};

/// Result of parsing a JSONL event log.
struct EventParseResult {
  std::vector<Event> events;
  std::string error;  ///< Empty on success.

  bool ok() const { return error.empty(); }
};

/// Reads a log written by the JSONL sink. Blank lines are
/// skipped. A malformed line yields a non-empty `error` naming the line:
/// a missing or ill-typed field, an id, node, flags, seq, epoch or time
/// that is not an integer in its field's range (ids and nodes may be -1),
/// or a preempt_decision line without "gap" and "rho". Only the double
/// payloads (a, b, gap, rho) may be null; they read back as 0.
EventParseResult read_event_log(std::istream& in);
EventParseResult read_event_log(const std::string& path);

}  // namespace dsp::obs
