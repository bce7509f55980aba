#include "sim/recorder.h"

#include <algorithm>

namespace dsp {

const char* to_string(IntervalKind k) {
  switch (k) {
    case IntervalKind::kOverhead: return "overhead";
    case IntervalKind::kRun: return "run";
    case IntervalKind::kHoard: return "hoard";
  }
  return "?";
}

namespace {

/// Overheads and round counts travel as double payloads. One that is not
/// a non-negative integer below 2^53 (possible only in an edited file)
/// reads as 0 rather than overflowing the integer cast.
std::int64_t count_payload(double v) {
  return v >= 0.0 && v < 9007199254740992.0 ? static_cast<std::int64_t>(v)
                                            : 0;
}

}  // namespace

TimelineRecorder::TaskTrack& TimelineRecorder::track(Gid g) {
  if (tracks_.size() <= g) tracks_.resize(static_cast<std::size_t>(g) + 1);
  return tracks_[g];
}

void TimelineRecorder::push_interval(TaskTrack& track, const Interval& iv) {
  track.intervals.push_back(intervals_.size());
  if (iv.kind != IntervalKind::kHoard &&
      (track.first_run == kNoTime || iv.begin < track.first_run))
    track.first_run = iv.begin;
  intervals_.push_back(iv);
}

void TimelineRecorder::start(SimTime t, Gid g, int node, IntervalKind kind,
                             SimTime overhead) {
  TaskTrack& o = track(g);
  // A hoarding task that activates transitions hoard -> run; close the
  // hoard interval first.
  if (o.active) close(g, t, Interval::End::kFinished);
  o.node = node;
  o.kind = kind;
  o.begin = t;
  o.overhead = overhead;
  o.active = true;
}

void TimelineRecorder::close(Gid g, SimTime t, Interval::End outcome) {
  TaskTrack& o = track(g);
  if (!o.active) return;
  o.active = false;
  if (o.kind == IntervalKind::kHoard) {
    push_interval(o, {g, o.node, IntervalKind::kHoard, o.begin, t, outcome});
    return;
  }
  // Split the occupation into its overhead prefix and productive suffix.
  const SimTime overhead_end = std::min(t, o.begin + o.overhead);
  if (overhead_end > o.begin)
    push_interval(
        o, {g, o.node, IntervalKind::kOverhead, o.begin, overhead_end, outcome});
  if (t > overhead_end)
    push_interval(o, {g, o.node, IntervalKind::kRun, overhead_end, t, outcome});
}

void TimelineRecorder::on_event(const obs::Event& e) {
  using obs::EventKind;
  switch (e.kind) {
    case EventKind::kTaskDispatch:
      // A hoard activation carries no overhead (a == 0).
      start(e.time, e.task, e.node, IntervalKind::kRun, count_payload(e.a));
      break;
    case EventKind::kHoardStart:
      start(e.time, e.task, e.node, IntervalKind::kHoard, 0);
      break;
    case EventKind::kTaskFinish: {
      close(e.task, e.time, Interval::End::kFinished);
      SimTime& finish = track(e.task).finish;
      if (finish == kNoTime) finish = e.time;
      break;
    }
    case EventKind::kTaskPreempt:
      close(e.task, e.time, Interval::End::kPreempted);
      break;
    case EventKind::kHoardEvict:
      close(e.task, e.time, Interval::End::kEvicted);
      break;
    case EventKind::kJobComplete:
      job_completions_.emplace_back(e.time, e.job);
      break;
    case EventKind::kScheduleRound:
      rounds_.push_back({e.time, static_cast<std::size_t>(count_payload(e.a)),
                         static_cast<std::size_t>(count_payload(e.b))});
      break;
    case EventKind::kEpoch:
      epochs_.push_back(e.time);
      break;
    default:
      break;
  }
}

std::vector<Interval> TimelineRecorder::intervals_for_task(Gid g) const {
  std::vector<Interval> result;
  if (g >= tracks_.size()) return result;
  for (std::size_t i : tracks_[g].intervals) result.push_back(intervals_[i]);
  std::sort(result.begin(), result.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  return result;
}

std::vector<Interval> TimelineRecorder::intervals_on_node(int node) const {
  std::vector<Interval> result;
  for (const auto& iv : intervals_)
    if (iv.node == node) result.push_back(iv);
  std::sort(result.begin(), result.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  return result;
}

SimTime TimelineRecorder::finish_time(Gid g) const {
  return g < tracks_.size() ? tracks_[g].finish : kNoTime;
}

SimTime TimelineRecorder::first_run_start(Gid g) const {
  return g < tracks_.size() ? tracks_[g].first_run : kNoTime;
}

}  // namespace dsp
