// Timeline recording: builds a Gantt-style execution trace from the
// engine's flight-recorder events (obs/events.h).
//
// Every slot occupation becomes an interval {task, node, kind, begin, end}:
// productive execution, dispatch overhead (context switch / checkpoint
// recovery), or slot hoarding. The recorder powers the run-invariant
// checker (invariants.h) and the Chrome trace export. It reads the stream
// either in process (as an EventLog consumer) or from a recorded JSONL
// file (read_event_log); both yield the same timeline.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dag/task.h"
#include "obs/events.h"
#include "sim/types.h"
#include "util/time.h"

namespace dsp {

/// What a recorded slot interval represents.
enum class IntervalKind : std::uint8_t {
  kOverhead,  ///< Context-switch / checkpoint-recovery time.
  kRun,       ///< Productive execution.
  kHoard,     ///< Slot held by a task whose inputs do not exist yet.
};

const char* to_string(IntervalKind k);

/// One slot occupation.
struct Interval {
  Gid task = kInvalidGid;
  int node = -1;
  IntervalKind kind = IntervalKind::kRun;
  SimTime begin = 0;
  SimTime end = 0;
  /// How the occupation ended.
  enum class End : std::uint8_t { kFinished, kPreempted, kEvicted } outcome =
      End::kFinished;

  SimTime duration() const { return end - begin; }
};

/// Records the full execution timeline of one simulation run.
///
/// Usage, in process:
///   obs::EventLog log;
///   TimelineRecorder recorder;
///   log.set_consumer([&](const obs::Event& e) { recorder.on_event(e); });
///   engine.set_event_log(&log);
///   engine.run();
///   auto problems = check_run_invariants(recorder, ...);
/// or from a file: feed on_event every event of read_event_log(path).
class TimelineRecorder {
 public:
  /// Folds one event into the timeline. Dispatches, finishes,
  /// preemptions and hoarding open and close slot intervals; job
  /// completions, scheduling rounds and epochs are kept as marks; every
  /// other kind is ignored.
  void on_event(const obs::Event& e);

  /// All closed intervals, in completion order.
  const std::vector<Interval>& intervals() const { return intervals_; }

  /// Intervals of one task, in time order.
  std::vector<Interval> intervals_for_task(Gid g) const;

  /// Intervals on one node, in time order.
  std::vector<Interval> intervals_on_node(int node) const;

  /// Completion time of task `g`, or kNoTime if it never finished.
  SimTime finish_time(Gid g) const;

  /// First productive start of task `g`, or kNoTime.
  SimTime first_run_start(Gid g) const;

  /// Job completion times, in stream order.
  const std::vector<std::pair<SimTime, JobId>>& job_completions() const {
    return job_completions_;
  }

  /// One offline scheduling round (a kScheduleRound event).
  struct ScheduleRound {
    SimTime time = 0;
    std::size_t jobs = 0;
    std::size_t placements = 0;
  };

  /// Number of scheduling rounds observed.
  std::size_t schedule_rounds() const { return rounds_.size(); }

  /// Every scheduling round, in time order (the Chrome trace exporter
  /// renders these as instant events).
  const std::vector<ScheduleRound>& rounds() const { return rounds_; }

  /// Every preemption epoch tick, in time order.
  const std::vector<SimTime>& epochs() const { return epochs_; }

 private:
  /// Per-task state, indexed by gid: the open slot occupation plus the
  /// indexes that make the per-task queries independent of the run length.
  struct TaskTrack {
    // The occupation in progress, if `active`.
    int node = -1;
    IntervalKind kind = IntervalKind::kRun;
    SimTime begin = 0;
    SimTime overhead = 0;
    bool active = false;
    SimTime finish = kNoTime;     ///< First finish record.
    SimTime first_run = kNoTime;  ///< Earliest non-hoard interval begin.
    std::vector<std::size_t> intervals;  ///< Into intervals_, closing order.
  };
  void start(SimTime t, Gid g, int node, IntervalKind kind, SimTime overhead);
  void close(Gid g, SimTime t, Interval::End outcome);
  void push_interval(TaskTrack& track, const Interval& iv);
  TaskTrack& track(Gid g);

  std::vector<TaskTrack> tracks_;  // indexed by gid, grown on demand
  std::vector<Interval> intervals_;
  std::vector<std::pair<SimTime, JobId>> job_completions_;
  std::vector<ScheduleRound> rounds_;
  std::vector<SimTime> epochs_;
};

}  // namespace dsp
