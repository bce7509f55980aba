#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/log.h"

namespace dsp {

const char* to_string(TaskState s) {
  switch (s) {
    case TaskState::kUnscheduled: return "unscheduled";
    case TaskState::kWaiting: return "waiting";
    case TaskState::kRunning: return "running";
    case TaskState::kHoarding: return "hoarding";
    case TaskState::kSuspended: return "suspended";
    case TaskState::kFinished: return "finished";
  }
  return "?";
}

const char* to_string(PreemptResult r) {
  switch (r) {
    case PreemptResult::kOk: return "ok";
    case PreemptResult::kIncomingNotReady: return "incoming-not-ready";
    case PreemptResult::kIncomingNotWaiting: return "incoming-not-waiting";
    case PreemptResult::kVictimNotRunning: return "victim-not-running";
    case PreemptResult::kNoResources: return "no-resources";
  }
  return "?";
}

namespace {

// Node ids are small; the flight recorder stores them as int16 to keep
// obs::Event compact. ClusterSpec::validate() rejects clusters whose ids
// would not fit, so the cast never wraps.
static_assert(ClusterSpec::kMaxNodes - 1 ==
              static_cast<std::size_t>(
                  std::numeric_limits<decltype(obs::Event::node)>::max()));
std::int16_t n16(int node) { return static_cast<std::int16_t>(node); }

// Throws std::invalid_argument naming the first task whose demand fits no
// node: it could never run, so it is rejected once, here.
void reject_unplaceable_tasks(const ClusterSpec& cluster, const JobSet& jobs) {
  for (const Job& job : jobs) {
    for (TaskIndex t = 0; t < job.task_count(); ++t) {
      const Resources& demand = job.task(t).demand;
      if (cluster.fits_some_node(demand)) continue;
      Resources largest;
      for (const NodeSpec& n : cluster.nodes())
        largest = Resources::max_of(largest, n.capacity);
      throw std::invalid_argument(
          "Engine: job " + std::to_string(job.id()) + " task " +
          std::to_string(t) + " demands " + demand.to_string() +
          ", which fits none of the " + std::to_string(cluster.size()) +
          " nodes (largest capacity per dimension " + largest.to_string() +
          ")");
    }
  }
}

}  // namespace

// Default dispatch rule: first ready, fitting task in planned-start order.
Gid Scheduler::select_next(int node, Engine& engine,
                           const std::vector<std::uint8_t>& excluded) {
  for (Gid g : engine.ready(node)) {
    if (excluded[g]) continue;
    if (!engine.available(node).fits(engine.task_info(g).demand)) continue;
    return g;
  }
  return kInvalidGid;
}

Engine::Engine(ClusterSpec cluster, JobSet jobs, Scheduler& scheduler,
               PreemptionPolicy* preempt, EngineParams params)
    : cluster_(std::move(cluster)),
      jobs_(std::move(jobs)),
      scheduler_(scheduler),
      preempt_(preempt),
      params_(params) {
  // Before the renumbering, so the message names the caller's job id.
  reject_unplaceable_tasks(cluster_, jobs_);
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    assert(jobs_[j].finalized() && "jobs must be finalized before simulation");
    // Engine addresses jobs by their position; keep ids consistent.
    jobs_[j].set_id(static_cast<JobId>(j));
  }
  tasks_.init(jobs_);
  dispatch_excluded_.assign(tasks_.task_count(), 0);
  nodes_.init(cluster_);

  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    push_event(jobs_[j].arrival(), EventCalendar::Kind::kArrival,
               static_cast<Gid>(j), 0);
    first_arrival_ = std::min(first_arrival_, jobs_[j].arrival());
  }
  if (jobs_.empty()) first_arrival_ = 0;

  // Period ticks start with the first arrival; epoch ticks only when an
  // online policy is installed.
  push_event(first_arrival_, EventCalendar::Kind::kPeriod, kInvalidGid, 0);
  if (preempt_)
    push_event(first_arrival_ + params_.epoch, EventCalendar::Kind::kEpoch,
               kInvalidGid, 0);
}

double Engine::remaining_mi(Gid g) const {
  const TaskRt& r = tasks_.rt(g);
  double executed = r.executed_mi;
  // A running task's progress advances continuously.
  if (r.state == TaskState::kRunning) executed += progress_mi(r);
  return std::max(0.0, task_info(g).size_mi - executed);
}

SimTime Engine::remaining_time(Gid g) const {
  const int node = tasks_.rt(g).node;
  return time_at_rate(remaining_mi(g),
                      node >= 0 ? node_rate(node) : cluster_.mean_rate());
}

Engine::LeafInputs Engine::leaf_inputs(Gid g) const {
  const TaskRt& r = tasks_.rt(g);
  const Task& info = task_info(g);
  double executed = r.executed_mi;
  if (r.state == TaskState::kRunning) executed += progress_mi(r);
  const double wait_s = r.total_wait_s + to_seconds(waiting_stretch(r));
  const double rate = r.node >= 0 ? node_rate(r.node) : cluster_.mean_rate();
  // Through the same progress, clock and rounding rules as remaining_time
  // and accumulated_wait_s, so the fused inputs are bit-identical to the
  // separate accessors. A saturated t_rem makes the allowance saturate
  // negative instead of wrapping deadline - now - kMaxTime below
  // INT64_MIN.
  const SimTime t_rem =
      time_at_rate(std::max(0.0, info.size_mi - executed), rate);
  const SimTime t_allow =
      t_rem == kMaxTime ? -kMaxTime : info.deadline - now_ - t_rem;
  return {to_seconds(t_rem), wait_s, to_seconds(t_allow)};
}

double Engine::progress_mi(const TaskRt& r) const {
  const SimTime worked =
      std::max<SimTime>(0, now_ - r.last_dispatch - r.current_overhead);
  return to_seconds(worked) * node_rate(r.node);
}

void Engine::bank_progress(Gid g, TaskRt& r) {
  r.executed_mi =
      std::min(r.executed_mi + progress_mi(r), task_info(g).size_mi);
}

SimTime Engine::waiting_stretch(const TaskRt& r) const {
  return queued(r.state) && r.waiting_since != kNoTime
             ? now_ - r.waiting_since
             : 0;
}

void Engine::stop_waiting_clock(TaskRt& r) {
  r.total_wait_s += to_seconds(waiting_stretch(r));
  r.waiting_since = kNoTime;
}

bool Engine::checkpointed() const {
  return !preempt_ ||
         preempt_->checkpoint_mode() == CheckpointMode::kCheckpoint;
}

SimTime Engine::resume_charge() const {
  return checkpointed() ? kRecovery + kCtxSwitch : kCtxSwitch;
}

void Engine::occupy_slot(ClusterState::Node& n, Gid g) {
  n.available -= task_info(g).demand;
  --n.free_slots;
  n.running.push_back(g);
}

void Engine::release_slot(ClusterState::Node& n, Gid g) {
  n.available += task_info(g).demand;
  ++n.free_slots;
  n.running.erase(std::find(n.running.begin(), n.running.end(), g));
}

void Engine::arm_finish(Gid g, TaskRt& r) {
  ++r.token;
  const double remaining = std::max(0.0, task_info(g).size_mi - r.executed_mi);
  push_event(now_ + r.current_overhead +
                 from_seconds(remaining / node_rate(r.node)),
             EventCalendar::Kind::kFinish, g, r.token);
}

bool Engine::depends_on(Gid dependent, Gid precedent) const {
  const JobId j = tasks_.job_of(dependent);
  if (j != tasks_.job_of(precedent)) return false;
  assert(j < jobs_.size());
  return jobs_[j].graph().depends_on(tasks_.index_of(dependent),
                                     tasks_.index_of(precedent));
}

RunMetrics Engine::run() {
  if (lifecycle_ != Lifecycle::kIdle) {
    // Re-running would replay arrivals against consumed calendar/runtime
    // state and silently corrupt every metric. Fail loudly instead.
    DSP_ERROR(
        "Engine::run() called on a %s engine: an Engine instance is "
        "single-shot. Construct a fresh Engine (or use run_scenario) for "
        "each run.",
        lifecycle_ == Lifecycle::kRunning ? "still-running" : "finished");
    std::abort();
  }
  lifecycle_ = Lifecycle::kRunning;
  emit_event({.kind = obs::EventKind::kRunInfo,
              .job = static_cast<std::uint32_t>(jobs_.size()),
              .task = static_cast<Gid>(tasks_.task_count()),
              .a = static_cast<double>(cluster_.size()),
              .b = static_cast<double>(cluster_.total_slots())});
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t events_processed = 0;

  while (!calendar_.empty()) {
    const EventCalendar::Entry e = calendar_.pop();
    if (e.time > params_.horizon) {
      DSP_WARN("engine: horizon %lld us exceeded; aborting with %zu/%zu jobs done",
               static_cast<long long>(params_.horizon), finished_jobs_,
               jobs_.size());
      break;
    }
    assert(e.time >= now_);
    now_ = e.time;
    ++events_processed;
    switch (e.kind) {
      case EventCalendar::Kind::kArrival:
        on_arrival(static_cast<JobId>(e.gid));
        break;
      case EventCalendar::Kind::kPeriod: on_period(); break;
      case EventCalendar::Kind::kEpoch: on_epoch(); break;
      case EventCalendar::Kind::kFinish: on_finish(e.gid, e.token); break;
      case EventCalendar::Kind::kHoardTimeout:
        on_hoard_timeout(e.gid, e.token);
        break;
      case EventCalendar::Kind::kNodeEvent: on_node_event(e.gid); break;
    }
    if (all_jobs_finished()) break;
  }

  if (!all_jobs_finished())
    DSP_WARN("engine: finished with %zu/%zu jobs incomplete",
             jobs_.size() - finished_jobs_, jobs_.size());

  metrics_.makespan = std::max<SimTime>(0, last_finish_ - first_arrival_);
  double busy = 0.0;
  for (std::size_t k = 0; k < nodes_.size(); ++k)
    busy += nodes_.node(static_cast<int>(k)).busy_us;
  const double slot_time = static_cast<double>(metrics_.makespan) *
                           static_cast<double>(cluster_.total_slots());
  metrics_.slot_utilization = slot_time > 0.0 ? busy / slot_time : 0.0;
  metrics_.sim_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  DSP_COUNT_N("engine.events", events_processed);
  DSP_COUNT("engine.runs");
  DSP_OBSERVE("engine.run_s", metrics_.sim_wall_s);
  lifecycle_ = Lifecycle::kDone;
  return metrics_;
}

void Engine::record_preempt_decision(const obs::PreemptDecision& d) {
  ++metrics_.preempt_evaluations;
  switch (d.outcome) {
    case obs::PreemptOutcome::kFired:
      // The successful try_preempt already counted metrics_.preemptions.
      DSP_COUNT("preempt.fired");
      break;
    case obs::PreemptOutcome::kSuppressedPP:
      ++metrics_.suppressed_preemptions;
      DSP_COUNT("preempt.suppressed_pp");
      break;
    case obs::PreemptOutcome::kBlockedByDependency:
      ++metrics_.preempt_blocked_dependency;
      DSP_COUNT("preempt.blocked_c2");
      break;
    case obs::PreemptOutcome::kNoVictim:
      ++metrics_.preempt_no_victim;
      DSP_COUNT("preempt.no_victim");
      break;
  }
  // Encoding costs an out-of-line call and a job lookup per decision;
  // skip both when nothing records the stream.
  if (events_log_ == nullptr) return;
  emit_event(obs::decision_event(
      d, d.candidate == kInvalidGid ? ~std::uint32_t{0}
                                    : tasks_.job_of(d.candidate)));
}

void Engine::on_arrival(JobId job) {
  pending_jobs_.push_back(job);
  emit_event({.kind = obs::EventKind::kJobArrival,
              .job = job,
              .a = static_cast<double>(jobs_[job].task_count())});
}

void Engine::set_failure_plan(const FailurePlan& plan) {
  assert(lifecycle_ == Lifecycle::kIdle &&
         "install the failure plan before run()");
  const std::vector<NodeEvent> events = plan.sorted_events();
  for (const NodeEvent& event : events)
    if (!nodes_.in_range(event.node))
      throw std::invalid_argument(
          "Engine: failure plan names node " + std::to_string(event.node) +
          ", but the cluster has " + std::to_string(cluster_.size()) +
          " nodes");
  for (const NodeEvent& event : events) {
    failure_events_.push_back(event);
    push_event(event.at, EventCalendar::Kind::kNodeEvent,
               static_cast<Gid>(failure_events_.size() - 1), 0);
  }
}

void Engine::on_node_event(std::size_t index) {
  const NodeEvent& event = failure_events_[index];
  ClusterState::Node& n = nodes_.node_mut(event.node);
  switch (event.kind) {
    case NodeEvent::Kind::kFail:
      if (n.up) fail_node(event.node);
      break;
    case NodeEvent::Kind::kRecover:
      if (!n.up) recover_node(event.node);
      break;
    case NodeEvent::Kind::kSlowdown:
      if (n.up && n.speed_factor != event.factor) {
        rebase_running(event.node);
        n.speed_factor = event.factor;
        rebase_running(event.node);  // reschedule finishes at the new rate
      }
      break;
    case NodeEvent::Kind::kRestoreSpeed:
      if (n.up && n.speed_factor != 1.0) {
        rebase_running(event.node);
        n.speed_factor = 1.0;
        rebase_running(event.node);
      }
      break;
  }
  // The recorder logs the event as applied: the post-event speed factor
  // travels in `a`.
  emit_event({.kind = recorder_event_kind(event.kind),
              .node = n16(event.node),
              .a = n.speed_factor});
}

void Engine::rebase_running(int node) {
  ClusterState::Node& n = nodes_.node_mut(node);
  for (Gid g : n.running) {
    TaskRt& r = tasks_.rt(g);
    if (r.state != TaskState::kRunning) continue;  // hoarders have no event
    // Bank progress at the *current* effective rate, then re-arm the
    // finish event for the remaining work.
    const SimTime elapsed = now_ - r.last_dispatch;
    bank_progress(g, r);
    n.busy_us += static_cast<double>(elapsed);
    r.current_overhead = std::max<SimTime>(0, r.current_overhead - elapsed);
    r.last_dispatch = now_;
    arm_finish(g, r);
  }
}

void Engine::fail_node(int node) {
  ClusterState::Node& n = nodes_.node_mut(node);
  ++metrics_.node_failures;
  n.up = false;

  // Kill occupants. With surviving checkpoints a task keeps the progress
  // it had checkpointed; otherwise everything re-executes.
  const std::vector<Gid> occupants = n.running;
  for (Gid g : occupants) {
    TaskRt& r = tasks_.rt(g);
    ++metrics_.tasks_killed_by_failure;
    if (r.state == TaskState::kRunning) {
      if (params_.checkpoints_survive_failure) {
        // The un-checkpointed tail since the last event is conservatively
        // kept: continuous checkpointing.
        bank_progress(g, r);
      } else {
        metrics_.work_lost_mi += r.executed_mi + progress_mi(r);
        r.executed_mi = 0.0;
      }
      n.busy_us += static_cast<double>(now_ - r.last_dispatch);
      emit_event({.kind = obs::EventKind::kTaskPreempt,
                  .flags = params_.checkpoints_survive_failure
                               ? obs::kEventFlagKeptProgress
                               : std::uint8_t{0},
                  .job = tasks_.job_of(g),
                  .task = g,
                  .node = n16(node)});
    } else if (r.state == TaskState::kHoarding) {
      emit_event({.kind = obs::EventKind::kHoardEvict,
                  .job = tasks_.job_of(g),
                  .task = g,
                  .node = n16(node)});
    }
    ++r.token;
    ++r.preemptions;
    r.state = TaskState::kSuspended;
    release_slot(n, g);
    enqueue_waiting(node, g);
  }

  // Re-place everything queued on the dead node onto live nodes.
  const std::vector<Gid> stranded = n.waiting;
  for (Gid g : stranded) replace_waiting_task(g);
}

void Engine::recover_node(int node) {
  ClusterState::Node& n = nodes_.node_mut(node);
  n.up = true;
  n.speed_factor = 1.0;
  fill_slots(node);
}

void Engine::replace_waiting_task(Gid g) {
  const int old_node = tasks_.rt(g).node;
  int best = -1;
  double best_backlog = 0.0;
  for (std::size_t k = 0; k < cluster_.size(); ++k) {
    const int kn = static_cast<int>(k);
    if (!nodes_.node(kn).up || kn == old_node) continue;
    if (!cluster_.node(k).capacity.fits(task_info(g).demand)) continue;
    if (best < 0 || nodes_.node(kn).backlog_mi < best_backlog) {
      best = kn;
      best_backlog = nodes_.node(kn).backlog_mi;
    }
  }
  if (best < 0) return;  // no live node fits: wait for recovery
  move_queued(g, best, obs::kEventFlagFailover);
}

void Engine::on_period() {
  if (!pending_jobs_.empty()) {
    std::vector<JobId> pending;
    pending.swap(pending_jobs_);
    std::vector<TaskPlacement> placements;
    {
      DSP_PROFILE("sched.round_s");
      placements = scheduler_.schedule(pending, *this);
    }
    emit_event({.kind = obs::EventKind::kScheduleRound,
                .a = static_cast<double>(pending.size()),
                .b = static_cast<double>(placements.size())});
    apply_placements(placements, pending);
    fill_all_slots();
  }
  if (!all_jobs_finished())
    push_event(now_ + params_.period, EventCalendar::Kind::kPeriod,
               kInvalidGid, 0);
}

void Engine::on_epoch() {
  if (preempt_) {
    // Bump the ordinal before emitting so every event of this epoch —
    // the boundary marker included — carries the new index.
    ++epoch_index_;
    emit_event({.kind = obs::EventKind::kEpoch,
                .a = static_cast<double>(epoch_index_)});
    {
      DSP_PROFILE("engine.epoch_s");
      preempt_->on_epoch(*this);
    }
    fill_all_slots();
    if (!all_jobs_finished())
      push_event(now_ + params_.epoch, EventCalendar::Kind::kEpoch,
                 kInvalidGid, 0);
  }
}

void Engine::apply_placements(const std::vector<TaskPlacement>& placements,
                              const std::vector<JobId>& pending) {
  // Mark expected tasks.
  for (JobId j : pending) tasks_.job_rt(j).scheduled = true;

  std::vector<std::uint8_t> placed(tasks_.task_count(), 0);
  for (const auto& p : placements) {
    if (p.task >= tasks_.task_count() || p.node < 0 ||
        static_cast<std::size_t>(p.node) >= cluster_.size()) {
      DSP_ERROR("scheduler %s produced an invalid placement (task %u node %d)",
                scheduler_.name(), p.task, p.node);
      continue;
    }
    if (tasks_.rt(p.task).state != TaskState::kUnscheduled || placed[p.task]) {
      DSP_ERROR("scheduler %s placed task %u twice", scheduler_.name(), p.task);
      continue;
    }
    const auto& cap = cluster_.node(static_cast<std::size_t>(p.node)).capacity;
    if (!cap.fits(task_info(p.task).demand)) {
      DSP_WARN("placement of task %u exceeds node %d capacity; re-placing",
               p.task, p.node);
      continue;  // falls through to the fallback pass below
    }
    if (!nodes_.node(p.node).up) {
      DSP_DEBUG("placement of task %u targets down node %d; re-placing",
                p.task, p.node);
      continue;  // fallback pass places it on a live node
    }
    placed[p.task] = 1;
    tasks_.rt(p.task).node = p.node;
    tasks_.rt(p.task).planned_start = p.planned_start;
    enqueue_waiting(p.node, p.task);
  }

  // Fallback: any unplaced task of a pending job goes to the least-loaded
  // node that can hold it, live nodes first. Keeps runs comparable even
  // when a scheduler mis-places (logged above); a task that only down
  // nodes fit waits there for recover_node, as replace_waiting_task does.
  for (JobId j : pending) {
    for (TaskIndex t = 0; t < jobs_[j].task_count(); ++t) {
      const Gid g = gid(j, t);
      if (placed[g] || tasks_.rt(g).state != TaskState::kUnscheduled) continue;
      int best = -1;
      bool best_up = false;
      double best_backlog = 0.0;
      for (std::size_t k = 0; k < cluster_.size(); ++k) {
        if (!cluster_.node(k).capacity.fits(task_info(g).demand)) continue;
        const bool up = nodes_.node(static_cast<int>(k)).up;
        const double backlog = nodes_.node(static_cast<int>(k)).backlog_mi;
        if (best < 0 || (up && !best_up) ||
            (up == best_up && backlog < best_backlog)) {
          best = static_cast<int>(k);
          best_up = up;
          best_backlog = backlog;
        }
      }
      assert(best >= 0);  // the constructor rejected unplaceable tasks
      DSP_DEBUG("fallback placement: task %u -> node %d", g, best);
      tasks_.rt(g).node = best;
      tasks_.rt(g).planned_start = now_;
      enqueue_waiting(best, g);
    }
  }
}

void Engine::enqueue_waiting(int node, Gid g) {
  TaskRt& r = tasks_.rt(g);
  const bool first_entry = r.state == TaskState::kUnscheduled;
  if (first_entry) {
    r.state = TaskState::kWaiting;
    nodes_.node_mut(node).backlog_mi += task_info(g).size_mi;
  }
  emit_event({.kind = obs::EventKind::kTaskEnqueue,
              .flags = first_entry ? std::uint8_t{0} : obs::kEventFlagRequeue,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(node)});
  r.waiting_since = now_;
  // Every path that queues a task whose progress changed comes through
  // here; hoard-timeout requeues and migrations move a task that has made
  // no progress since, so the stored value stays exact while it waits.
  tasks_.set_queued_remaining_mi(
      g, std::max(0.0, task_info(g).size_mi - r.executed_mi));
  nodes_.insert_waiting(node, g, tasks_);
}

void Engine::fill_all_slots() {
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const ClusterState::Node& n = nodes_.node(static_cast<int>(k));
    if (n.up && n.free_slots > 0 && !n.waiting.empty())
      fill_slots(static_cast<int>(k));
  }
}

void Engine::fill_slots(int node) {
  ClusterState::Node& n = nodes_.node_mut(node);
  if (!n.up) return;
  std::vector<Gid> touched;
  // A dependency-blind policy can nominate unready task after unready task.
  // Each rejection persistently blocks the task (launch_blocked_) so it is
  // not re-nominated until its inputs appear; the per-event budget is a
  // backstop against policies that ignore the blocked flag.
  int disorder_budget = 1024;
  while (n.free_slots > 0 && !n.waiting.empty()) {
    const Gid g = scheduler_.select_next(node, *this, dispatch_excluded_);
    if (g == kInvalidGid) break;
    if (g >= tasks_.task_count() || tasks_.rt(g).node != node ||
        !queued(tasks_.rt(g).state)) {
      DSP_ERROR("scheduler %s selected an invalid task %u for dispatch",
                scheduler_.name(), g);
      break;
    }
    if (dispatch_excluded_[g]) break;  // policy ignored the exclusion set
    if (!is_ready(g)) {
      // Dependency disorder. A slot-hoarding executor launches the task
      // anyway and it idles in the slot until its inputs appear; otherwise
      // the launch check rejects it and blocks re-nomination until its
      // precedents finish.
      ++metrics_.disorders;
      if (scheduler_.hoards_slots() &&
          n.available.fits(task_info(g).demand)) {
        nodes_.remove_waiting(node, g, tasks_);
        start_hoarding(node, g);
        continue;
      }
      tasks_.set_launch_blocked(g);
      dispatch_excluded_[g] = 1;
      touched.push_back(g);
      if (--disorder_budget <= 0) break;
      continue;
    }
    if (!n.available.fits(task_info(g).demand)) {
      dispatch_excluded_[g] = 1;
      touched.push_back(g);
      continue;
    }
    const SimTime overhead =
        tasks_.rt(g).state == TaskState::kSuspended ? resume_charge() : 0;
    nodes_.remove_waiting(node, g, tasks_);
    start_task(node, g, overhead);
  }
  for (Gid g : touched) dispatch_excluded_[g] = 0;
}

void Engine::start_hoarding(int node, Gid g) {
  TaskRt& r = tasks_.rt(g);
  ClusterState::Node& n = nodes_.node_mut(node);
  assert(n.free_slots > 0 && !is_ready(g));
  stop_waiting_clock(r);
  r.state = TaskState::kHoarding;
  ++r.token;
  occupy_slot(n, g);
  push_event(now_ + params_.hoard_timeout, EventCalendar::Kind::kHoardTimeout,
             g, r.token);
  emit_event({.kind = obs::EventKind::kHoardStart,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(node)});
}

void Engine::activate_hoarding(Gid g) {
  TaskRt& r = tasks_.rt(g);
  assert(r.state == TaskState::kHoarding && is_ready(g));
  // The slot and resources are already held; begin real execution now.
  // Hoarded time is deliberately NOT counted as busy slot time. No input
  // transfer is charged either: the task had the whole hoarding window to
  // prefetch its data.
  if (r.first_start == kNoTime) r.first_start = now_;
  r.state = TaskState::kRunning;
  r.last_dispatch = now_;
  r.current_overhead = 0;
  arm_finish(g, r);
  emit_event({.kind = obs::EventKind::kTaskDispatch,
              .flags = obs::kEventFlagHoardActivate,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(r.node)});
}

void Engine::on_hoard_timeout(Gid g, std::uint32_t token) {
  TaskRt& r = tasks_.rt(g);
  if (r.token != token || r.state != TaskState::kHoarding) return;  // stale
  // Evict: the executor gives up on the missing inputs and requeues the
  // task, freeing the slot it was wasting.
  const int node = r.node;
  ClusterState::Node& n = nodes_.node_mut(node);
  ++r.token;
  r.state = TaskState::kWaiting;
  release_slot(n, g);
  tasks_.set_launch_blocked(g);  // do not re-launch until inputs appear
  // Re-insert into the waiting queue; state must not look unscheduled.
  nodes_.insert_waiting(node, g, tasks_);
  r.waiting_since = now_;
  emit_event({.kind = obs::EventKind::kHoardEvict,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(node)});
  fill_slots(node);
}

void Engine::start_task(int node, Gid g, SimTime resume_overhead) {
  TaskRt& r = tasks_.rt(g);
  ClusterState::Node& n = nodes_.node_mut(node);
  assert(n.free_slots > 0);
  assert(queued(r.state));

  stop_waiting_clock(r);
  if (r.first_start == kNoTime) {
    r.first_start = now_;
    // First launch fetches the input data; afterwards it is node-local.
    const Task& info = task_info(g);
    if (!info.input_nodes.empty()) {
      const SimTime fetch = transfer_time(g, node);
      resume_overhead += fetch;
      if (fetch > 0) ++metrics_.locality_remote;
      else ++metrics_.locality_local;
    }
  }
  r.state = TaskState::kRunning;
  r.last_dispatch = now_;
  r.current_overhead = resume_overhead;
  metrics_.overhead_s += to_seconds(resume_overhead);
  occupy_slot(n, g);
  arm_finish(g, r);
  emit_event({.kind = obs::EventKind::kTaskDispatch,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(node),
              .a = static_cast<double>(resume_overhead)});
}

void Engine::suspend_task(int node, Gid g) {
  TaskRt& r = tasks_.rt(g);
  ClusterState::Node& n = nodes_.node_mut(node);
  assert(r.state == TaskState::kRunning && r.node == node);

  bank_progress(g, r);
  n.busy_us += static_cast<double>(now_ - r.last_dispatch);

  const bool kept = checkpointed();
  if (!kept) {
    // Restart from scratch (SRPT): the progress is discarded.
    metrics_.work_lost_mi += r.executed_mi;
    r.executed_mi = 0.0;
  }

  ++r.token;  // invalidate the in-flight finish event
  ++r.preemptions;
  r.state = TaskState::kSuspended;
  release_slot(n, g);
  emit_event({.kind = obs::EventKind::kTaskPreempt,
              .flags = kept ? obs::kEventFlagKeptProgress : std::uint8_t{0},
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(node)});
  enqueue_waiting(node, g);
}

PreemptResult Engine::try_preempt(int node, Gid victim, Gid incoming) {
  assert(nodes_.in_range(node));
  const ClusterState::Node& n = nodes_.node(node);
  if (tasks_.rt(victim).state != TaskState::kRunning ||
      tasks_.rt(victim).node != node)
    return PreemptResult::kVictimNotRunning;
  const TaskState in_state = tasks_.rt(incoming).state;
  if (!queued(in_state) || tasks_.rt(incoming).node != node)
    return PreemptResult::kIncomingNotWaiting;
  if (!is_ready(incoming)) {
    ++metrics_.disorders;
    tasks_.set_launch_blocked(incoming);
    return PreemptResult::kIncomingNotReady;
  }
  // Resource check with the victim's reservation returned.
  Resources freed = n.available + task_info(victim).demand;
  if (!freed.fits(task_info(incoming).demand))
    return PreemptResult::kNoResources;

  suspend_task(node, victim);
  ++metrics_.preemptions;

  // A waiting task pays the context switch; a suspended one resumes.
  const SimTime overhead =
      in_state == TaskState::kSuspended ? resume_charge() : kCtxSwitch;
  nodes_.remove_waiting(node, incoming, tasks_);
  start_task(node, incoming, overhead);
  return PreemptResult::kOk;
}

bool Engine::evict_running(Gid g) {
  const TaskRt& r = tasks_.rt(g);
  if (r.state != TaskState::kRunning) return false;
  suspend_task(r.node, g);
  ++metrics_.preemptions;
  return true;
}

bool Engine::migrate_task(Gid g, int to_node) {
  const TaskRt& r = tasks_.rt(g);
  if (!queued(r.state)) return false;
  if (!nodes_.in_range(to_node) || to_node == r.node) return false;
  if (!nodes_.node(to_node).up ||
      !cluster_.node(static_cast<std::size_t>(to_node))
           .capacity.fits(task_info(g).demand))
    return false;
  move_queued(g, to_node, 0);
  return true;
}

void Engine::move_queued(Gid g, int to_node, std::uint8_t flags) {
  TaskRt& r = tasks_.rt(g);
  const int from = r.node;
  nodes_.remove_waiting(from, g, tasks_);
  ClusterState::Node& src = nodes_.node_mut(from);
  src.backlog_mi = std::max(0.0, src.backlog_mi - task_info(g).size_mi);
  r.node = to_node;
  ClusterState::Node& dst = nodes_.node_mut(to_node);
  dst.backlog_mi += task_info(g).size_mi;
  nodes_.insert_waiting(to_node, g, tasks_);
  emit_event({.kind = obs::EventKind::kTaskMigrate,
              .flags = flags,
              .job = tasks_.job_of(g),
              .task = g,
              .node = n16(from),
              .node2 = n16(to_node)});
  if (dst.free_slots > 0) fill_slots(to_node);
}

void Engine::on_finish(Gid g, std::uint32_t token) {
  TaskRt& r = tasks_.rt(g);
  if (r.token != token || r.state != TaskState::kRunning) return;  // stale

  const int node = r.node;
  ClusterState::Node& n = nodes_.node_mut(node);
  r.state = TaskState::kFinished;
  r.finish = now_;
  r.executed_mi = task_info(g).size_mi;
  ++r.token;
  n.busy_us += static_cast<double>(now_ - r.last_dispatch);
  release_slot(n, g);
  n.backlog_mi = std::max(0.0, n.backlog_mi - task_info(g).size_mi);

  last_finish_ = std::max(last_finish_, now_);
  ++metrics_.tasks_finished;

  // Wake children; a hoarding child whose last input just appeared starts
  // executing in place, a queued one joins its node's ready subset.
  const JobId j = tasks_.job_of(g);
  const TaskGraph& graph = jobs_[j].graph();
  for (TaskIndex child : graph.children(tasks_.index_of(g))) {
    const Gid cg = gid(j, child);
    TaskRt& c = tasks_.rt(cg);
    assert(c.unfinished_parents > 0);
    if (--c.unfinished_parents != 0) continue;
    tasks_.set_ready(cg);
    if (c.state == TaskState::kHoarding)
      activate_hoarding(cg);
    else
      mark_ready_if_queued(cg);
  }

  emit_event({.kind = obs::EventKind::kTaskFinish,
              .job = j,
              .task = g,
              .node = n16(node)});

  JobRt& jr = tasks_.job_rt(j);
  jr.serviced_mi += task_info(g).size_mi;
  assert(jr.unfinished_tasks > 0);
  if (--jr.unfinished_tasks == 0) complete_job(j);

  fill_slots(node);
  // A child that became ready may be queued on another idle node.
  for (TaskIndex child : graph.children(tasks_.index_of(g))) {
    const TaskRt& c = tasks_.rt(gid(j, child));
    if (c.node >= 0 && c.node != node && c.unfinished_parents == 0 &&
        nodes_.node(c.node).free_slots > 0)
      fill_slots(c.node);
  }
}

void Engine::complete_job(JobId j) {
  JobRt& jr = tasks_.job_rt(j);
  jr.finished = true;
  ++finished_jobs_;
  ++metrics_.jobs_finished;

  SimTime finish = 0;
  double wait_total = 0.0;
  for (TaskIndex t = 0; t < jobs_[j].task_count(); ++t) {
    const TaskRt& r = tasks_.rt(gid(j, t));
    finish = std::max(finish, r.finish);
    wait_total += r.total_wait_s;
  }
  const double mean_wait =
      wait_total / static_cast<double>(jobs_[j].task_count());
  metrics_.job_waiting_s.push_back(mean_wait);
  const bool met = finish <= jobs_[j].deadline();
  if (met)
    ++metrics_.jobs_met_deadline;
  else
    ++metrics_.deadline_misses;
  metrics_.job_records.push_back(JobRecord{j, jobs_[j].size_class(),
                                           jobs_[j].tier(), jobs_[j].arrival(),
                                           finish, mean_wait, met});
  emit_event({.kind = obs::EventKind::kJobComplete,
              .flags = met ? obs::kEventFlagDeadlineMet : std::uint8_t{0},
              .job = j,
              .a = mean_wait});
}

void Engine::mark_ready_if_queued(Gid g) {
  const TaskRt& r = tasks_.rt(g);
  if (queued(r.state)) nodes_.mark_ready(r.node, g, tasks_);
}

}  // namespace dsp
