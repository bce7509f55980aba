// Discrete-event cluster simulator.
//
// Substitutes for the paper's physical testbeds (Palmetto, EC2): nodes with
// multi-resource capacities and run slots execute DAG jobs under an offline
// Scheduler and an online PreemptionPolicy. Single-threaded and
// deterministic: identical inputs produce identical runs.
//
// Kernel layering (DESIGN.md §16): the Engine is a thin orchestrator over
// three state components with explicit ownership —
//   - EventCalendar  when things happen (pending-event min-heap),
//   - ClusterState   where things run (nodes, slots, waiting queues),
//   - TaskRuntime    what progress was made (per-task/job records).
// Policies never touch the components directly: the Engine re-exports
// const-correct read views and owns every mutation. The rules that read
// and write those records (progress since dispatch, the waiting clock,
// slot occupancy, finish arming, the checkpoint rule and resume charge,
// cross-node queue moves, remaining-time rounding) each have one private
// Engine member, the only code that applies them (DESIGN.md §16.1).
//
// Execution model
//   - A node k runs up to `slots` tasks concurrently, each at rate g(k)
//     MIPS (Eq. (1)/(2)), provided their summed resource demands fit the
//     node's capacity.
//   - Scheduling periods (paper: 5 min): the Scheduler places all tasks of
//     the jobs that arrived during the previous period; tasks enter their
//     node's waiting queue ordered by planned start time.
//   - Epochs: the PreemptionPolicy runs and may suspend running tasks in
//     favour of waiting ones. A preempted task re-enters the queue; when it
//     later resumes it pays the recovery cost t^r + sigma (checkpoint
//     restore + context switch). Under CheckpointMode::kRestart all its
//     progress is lost instead (SRPT's behaviour in §V).
//   - Dispatch: whenever a slot frees, the Scheduler's select_next picks a
//     waiting task. Selecting a task whose precedents have not finished is
//     counted as a *disorder* (Fig. 6(a)) and the launch is refused.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "dag/job.h"
#include "obs/events.h"
#include "sim/cluster.h"
#include "sim/cluster_state.h"
#include "sim/event_calendar.h"
#include "sim/failures.h"
#include "sim/policy.h"
#include "sim/run_metrics.h"
#include "sim/task_runtime.h"
#include "sim/types.h"
#include "util/time.h"

namespace dsp {

/// sigma (Table II: 0.05 s), the context switch a resumed task pays, and
/// t^r, the checkpoint restore a checkpointed task pays on top of it.
inline constexpr SimTime kCtxSwitch = 50 * kMillisecond;
inline constexpr SimTime kRecovery = 250 * kMillisecond;
/// Rate (MB/s) at which a task launched off its input nodes first fetches
/// its input_mb (data locality, §VI future work).
inline constexpr double kRemoteReadBwMbps = 100.0;

/// Engine settings some caller changes (defaults follow the paper's §V).
struct EngineParams {
  SimTime period = 5 * kMinute;        ///< Offline scheduling period.
  SimTime epoch = 30 * kSecond;        ///< Online preemption epoch.
  /// How long a hoarding task (launched without its inputs by a
  /// dependency-blind scheduler) may hold a slot before being evicted and
  /// requeued. Prevents whole-cluster hoarding deadlock.
  SimTime hoard_timeout = 30 * kSecond;
  /// Whether a failed node's tasks resume from their checkpoints (stored
  /// on shared storage) or restart from scratch after the failure.
  bool checkpoints_survive_failure = true;
  SimTime horizon = 2000 * kHour;      ///< Hard stop for runaway runs.
};

/// The simulator. Construct with a cluster, a finalized workload and
/// policies, call run() once.
class Engine {
 public:
  /// `preempt` may be null (no online preemption, as for the Fig. 5
  /// scheduler baselines). Jobs must be finalized. Throws
  /// std::invalid_argument, as ClusterSpec's constructor does, when a
  /// task's demand fits no node of the cluster: the message names the job
  /// (by the id it was given), the task, its demand and the largest node
  /// capacity per dimension.
  Engine(ClusterSpec cluster, JobSet jobs, Scheduler& scheduler,
         PreemptionPolicy* preempt, EngineParams params = {});

  // ClusterState holds a pointer to cluster_ and TaskRuntime to jobs_;
  // moving an engine would dangle them. One engine, one place, one run.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the simulation to completion and returns the metrics.
  /// Single-shot: an Engine instance accumulates run state, so calling
  /// run() again would silently corrupt it — reuse is a fatal error
  /// (diagnostic + abort). Construct a fresh Engine per run.
  RunMetrics run();

  /// Where this engine is in its single-shot lifecycle.
  enum class Lifecycle : std::uint8_t { kIdle, kRunning, kDone };
  Lifecycle lifecycle() const { return lifecycle_; }

  /// Attaches a flight recorder: every engine transition (arrivals,
  /// dispatches, preemptions, Algorithm-1 decisions, node events,
  /// epochs, ...) is emitted as an obs::Event. This is the engine's only
  /// observation channel: timeline recording and invariant checking
  /// attach through the log's consumer hook (EventLog::set_consumer).
  /// Call before run(); the engine does not own the log. Without one the
  /// run records nothing: the engine reads no environment. simulate()
  /// attaches the DSP_EVENT_LOG log (obs/events.h); run_scenario() and
  /// the scenario grid attach only a log they are given.
  void set_event_log(obs::EventLog* log) { events_log_ = log; }
  /// The attached recorder, if any (policies use this to emit their own
  /// events through emit_event).
  obs::EventLog* event_log() const { return events_log_; }

  /// Stamps `e` with the current simulation time and epoch ordinal and
  /// records it. No-op without an attached log. Policies and schedulers
  /// emit through this so their events interleave consistently with the
  /// engine's own.
  void emit_event(obs::Event e) {
    if (events_log_ == nullptr) return;
    e.time = now_;
    e.epoch = epoch_index_;
    events_log_->emit(e);
  }

  /// Installs a failure/straggler injection plan. Call before run().
  /// Throws std::invalid_argument, installing nothing, when an event
  /// names a node outside the cluster (the message names the node and
  /// the cluster size).
  void set_failure_plan(const FailurePlan& plan);

  /// True while node `k` is up (failed nodes accept no work).
  bool node_up(int node) const { return nodes_.node(node).up; }
  /// Current speed factor of `node` (1.0 nominal; < 1 while straggling).
  double node_speed_factor(int node) const {
    return nodes_.node(node).speed_factor;
  }

  // ------------------------------------------------------------------
  // Read API for policies.
  // ------------------------------------------------------------------
  SimTime now() const { return now_; }
  const EngineParams& params() const { return params_; }
  const ClusterSpec& cluster() const { return cluster_; }
  std::size_t node_count() const { return cluster_.size(); }
  std::size_t job_count() const { return jobs_.size(); }

  /// Const views of the kernel components (policies and tools may walk
  /// these directly; all mutation stays inside the Engine).
  const ClusterState& cluster_state() const { return nodes_; }
  const TaskRuntime& task_runtime() const { return tasks_; }
  const EventCalendar& calendar() const { return calendar_; }

  const Job& job(JobId j) const {
    assert(j < jobs_.size());
    return jobs_[j];
  }
  JobId job_of(Gid g) const { return tasks_.job_of(g); }
  TaskIndex index_of(Gid g) const { return tasks_.index_of(g); }
  Gid gid(JobId j, TaskIndex t) const { return tasks_.gid(j, t); }
  const Task& task_info(Gid g) const { return tasks_.task_info(g); }

  TaskState state(Gid g) const { return tasks_.rt(g).state; }
  /// True when every precedent task has finished.
  bool is_ready(Gid g) const { return tasks_.ready(g); }
  /// True when a previous launch/preempt-in attempt failed the input
  /// check and the task has not become ready since. Dependency-blind
  /// policies skip blocked tasks instead of re-attempting them every
  /// event (a real scheduler remembers the failed launch until the
  /// missing inputs appear). Reads only the task's state byte, so a queue
  /// scan can reject a blocked entry without loading its records.
  bool launch_blocked(Gid g) const { return tasks_.launch_blocked(g); }
  /// Work left in MI (size minus executed).
  double remaining_mi(Gid g) const;
  /// remaining_mi(g) of a queued task, bit for bit, from one compact
  /// per-task array: a queued task makes no progress, so the value
  /// stored when it was queued stays exact. Defined only while `g` is
  /// waiting or suspended.
  double queued_remaining_mi(Gid g) const {
    assert(queued(tasks_.rt(g).state));
    return tasks_.queued_remaining_mi(g);
  }
  /// Time to execute `mi` at `rate` MIPS, rounded to SimTime. A rate that
  /// offers no progress (a fully degraded node, an empty cluster)
  /// saturates at kMaxTime instead of converting infinity.
  static SimTime time_at_rate(double mi, double rate) {
    return rate > 0.0 ? from_seconds(mi / rate) : kMaxTime;
  }
  /// Remaining execution time at the task's assigned node's rate
  /// (falls back to the cluster mean rate while unassigned).
  SimTime remaining_time(Gid g) const;
  /// Time since the task last entered the waiting queue (0 if not waiting).
  SimTime waiting_time(Gid g) const { return waiting_stretch(tasks_.rt(g)); }
  /// Total time the task has spent waiting across its whole life,
  /// including the current stretch. Priority formulas use this: a task
  /// that earned priority by waiting keeps it while running, which
  /// prevents preemption ping-pong between equal tasks.
  double accumulated_wait_s(Gid g) const {
    return tasks_.rt(g).total_wait_s + to_seconds(waiting_time(g));
  }
  /// Absolute per-task deadline t^d_ij (from the per-level rule).
  SimTime task_deadline(Gid g) const { return task_info(g).deadline; }
  /// Allowable waiting time t^a = t^d - now - t^rem (paper §IV-B).
  /// Saturates at -kMaxTime when t^rem itself saturated (zero-rate
  /// cluster) so the subtraction cannot wrap past INT64_MIN.
  SimTime allowable_waiting_time(Gid g) const {
    const SimTime t_rem = remaining_time(g);
    return t_rem == kMaxTime ? -kMaxTime : task_deadline(g) - now_ - t_rem;
  }
  int assigned_node(Gid g) const { return tasks_.rt(g).node; }
  int preemption_count(Gid g) const { return tasks_.rt(g).preemptions; }
  SimTime planned_start(Gid g) const { return tasks_.rt(g).planned_start; }

  /// True when `dependent` (transitively) depends on `precedent`.
  /// Tasks of different jobs never depend on each other.
  bool depends_on(Gid dependent, Gid precedent) const;

  /// Waiting queue of `node` in ascending planned-start order
  /// (includes suspended tasks awaiting resume).
  const std::vector<Gid>& waiting(int node) const {
    return nodes_.node(node).waiting;
  }
  /// The ready members of waiting(node) (is_ready holds), in the same
  /// planned-start order. Maintained by the kernel: a task joins when it
  /// is queued already ready or becomes ready while queued, and leaves
  /// with the waiting queue. Dependency-respecting scans walk this
  /// instead of re-testing is_ready over the whole queue.
  const std::vector<Gid>& ready(int node) const {
    return nodes_.node(node).ready;
  }
  /// Number of ready tasks among the first `window` entries of
  /// waiting(node): the prefix of ready(node) keyed at or before
  /// waiting(node)[window - 1].
  std::size_t ready_within(int node, std::size_t window) const {
    return nodes_.ready_within(node, window, tasks_);
  }
  /// Copies `node`'s waiting queue into `out` (cleared first). Policies
  /// that mutate the queue while iterating (try_preempt requeues the
  /// victim) snapshot into a reusable buffer instead of allocating a
  /// fresh vector per node per epoch.
  void waiting_snapshot(int node, std::vector<Gid>& out) const {
    const auto& w = nodes_.node(node).waiting;
    out.assign(w.begin(), w.end());
  }
  /// Tasks currently running on `node`.
  const std::vector<Gid>& running(int node) const {
    return nodes_.node(node).running;
  }
  /// Resources currently unreserved on `node`.
  const Resources& available(int node) const {
    return nodes_.node(node).available;
  }
  int free_slots(int node) const { return nodes_.node(node).free_slots; }
  /// Effective rate: nominal g(k) scaled by the current straggler factor.
  double node_rate(int node) const { return nodes_.rate(node); }
  /// Execution time of `g` on `node` ignoring preemption (Eq. (2)).
  SimTime exec_time(Gid g, int node) const {
    return from_seconds(task_info(g).size_mi / node_rate(node));
  }
  /// Time to fetch `g`'s input data when launched on `node`: zero when
  /// the data is node-local (or the task has no input constraint).
  SimTime transfer_time(Gid g, int node) const {
    const Task& t = task_info(g);
    if (t.input_local_to(node)) return 0;
    return from_seconds(t.input_mb / kRemoteReadBwMbps);
  }
  /// Outstanding work assigned to `node` in MI (waiting + running).
  double node_backlog_mi(int node) const {
    return nodes_.node(node).backlog_mi;
  }

  /// Count of successful preemptions so far (for adaptive controllers).
  std::uint64_t preemptions_so_far() const { return metrics_.preemptions; }

  /// The three leaf-priority inputs of Formula 13, fused into one pass
  /// over the task's runtime record (times in seconds):
  ///   t_rem_s   remaining execution time at the assigned node's rate,
  ///   t_wait_s  accumulated waiting time including the current stretch,
  ///   t_allow_s allowable waiting time t^a = t^d - now - t^rem.
  /// Bit-identical to composing remaining_time / accumulated_wait_s /
  /// allowable_waiting_time, at a third of the lookups.
  struct LeafInputs {
    double t_rem_s;
    double t_wait_s;
    double t_allow_s;
  };
  LeafInputs leaf_inputs(Gid g) const;

  /// True once the offline scheduler has placed this job's tasks.
  bool job_scheduled(JobId j) const { return tasks_.job_rt(j).scheduled; }
  /// True when every task of the job has finished.
  bool job_finished(JobId j) const { return tasks_.job_rt(j).finished; }
  /// Number of this job's tasks that have not finished yet.
  std::uint32_t unfinished_task_count(JobId j) const {
    return tasks_.job_rt(j).unfinished_tasks;
  }
  /// Total number of tasks across all jobs (the Gid domain size).
  std::size_t total_task_count() const { return tasks_.task_count(); }
  /// Work (MI) of this job's finished tasks — the "service received so
  /// far" signal Aalo's multi-level queues demote on.
  double job_serviced_mi(JobId j) const {
    return tasks_.job_rt(j).serviced_mi;
  }

  // ------------------------------------------------------------------
  // Mutation API for preemption policies.
  // ------------------------------------------------------------------
  /// Suspends `victim` (running on `node`) and starts `incoming` (waiting
  /// on `node`) in its place. On kIncomingNotReady a disorder is recorded
  /// and nothing changes. Respects the policy's CheckpointMode.
  PreemptResult try_preempt(int node, Gid victim, Gid incoming);

  /// Records one Algorithm-1 candidate evaluation: tallies the
  /// per-outcome RunMetrics counters and the observability registry, and
  /// emits it as a kPreemptDecision event (stamped with the current
  /// engine time). Policies call this once per candidate.
  void record_preempt_decision(const obs::PreemptDecision& d);

  /// Evicts a running task back to its node's waiting queue (checkpoint
  /// semantics apply). Counts as a preemption. Policies use this for
  /// straggler mitigation: vacate a degraded node so the work can migrate.
  /// Returns false when `g` is not running.
  bool evict_running(Gid g);

  /// Moves a waiting/suspended task to another node's queue (keeps its
  /// planned start). Fails when the task is not waiting, the target is
  /// down, or the task does not fit the target's capacity.
  bool migrate_task(Gid g, int to_node);

 private:
  void push_event(SimTime t, EventCalendar::Kind kind, Gid gid,
                  std::uint32_t token) {
    calendar_.push(t, kind, gid, token);
  }
  void on_arrival(JobId job);
  void on_period();
  void on_epoch();
  void on_finish(Gid g, std::uint32_t token);
  void apply_placements(const std::vector<TaskPlacement>& placements,
                        const std::vector<JobId>& pending);
  void enqueue_waiting(int node, Gid g);
  /// `g` just became ready: adds it to its node's ready subset when it is
  /// queued (waiting or suspended).
  void mark_ready_if_queued(Gid g);
  /// Starts an unready task in the hoarding state (slot occupied, no
  /// progress) and arms its eviction timeout.
  void start_hoarding(int node, Gid g);
  /// A hoarding task's last precedent finished: begin real execution.
  void activate_hoarding(Gid g);
  void on_hoard_timeout(Gid g, std::uint32_t token);
  void on_node_event(std::size_t index);
  /// Kills every running/hoarding task on a failed node and re-places its
  /// queued tasks onto live nodes.
  void fail_node(int node);
  void recover_node(int node);
  /// Re-anchors the running tasks of `node` after a rate change: progress
  /// accrued so far is banked and fresh finish events are scheduled at the
  /// new effective rate.
  void rebase_running(int node);
  /// Moves a waiting/suspended task to the live node with the least
  /// backlog; stays put when no live node fits.
  void replace_waiting_task(Gid g);
  void fill_slots(int node);
  void fill_all_slots();
  /// Starts `g` on `node`; `resume_overhead` > 0 when restoring a
  /// checkpointed task.
  void start_task(int node, Gid g, SimTime resume_overhead);
  /// Suspends running task `g`; applies the checkpoint mode.
  void suspend_task(int node, Gid g);
  /// Moves queued `g` to `to_node`'s queue with its backlog, emits the
  /// migration (with `flags`) and fills `to_node`'s free slots.
  void move_queued(Gid g, int to_node, std::uint8_t flags);
  void complete_job(JobId j);

  // ---- The kernel rules (DESIGN.md §16.1), one home each ------------
  /// MI running task `r` has executed since its last dispatch, at its
  /// node's current rate: slot time minus the dispatch overhead window,
  /// never negative.
  double progress_mi(const TaskRt& r) const;
  /// Credits progress_mi(r) to running task `g`, capped at its size.
  void bank_progress(Gid g, TaskRt& r);
  /// Time since `r` was last queued; 0 unless it is queued.
  SimTime waiting_stretch(const TaskRt& r) const;
  /// A queued task takes a slot: its waiting stretch joins total_wait_s.
  void stop_waiting_clock(TaskRt& r);
  /// True when a preempted task keeps its progress: always without a
  /// policy, otherwise unless the policy restarts (SRPT).
  bool checkpointed() const;
  /// What a suspended task pays to resume: t^r + sigma from a checkpoint,
  /// sigma alone when it restarts.
  SimTime resume_charge() const;
  /// `g` takes a slot and its demand on `n`, joining its occupants.
  void occupy_slot(ClusterState::Node& n, Gid g);
  /// `g` gives its slot and demand back to `n`, leaving its occupants.
  void release_slot(ClusterState::Node& n, Gid g);
  /// Invalidates `g`'s in-flight event and schedules its finish after the
  /// current overhead window plus its remaining work at the node's rate.
  void arm_finish(Gid g, TaskRt& r);
  bool all_jobs_finished() const { return finished_jobs_ == jobs_.size(); }

  ClusterSpec cluster_;
  JobSet jobs_;
  Scheduler& scheduler_;
  PreemptionPolicy* preempt_;
  EngineParams params_;
  obs::EventLog* events_log_ = nullptr;
  std::uint32_t epoch_index_ = 0;  // epoch ordinal stamped onto events

  // The kernel components (DESIGN.md §16). tasks_ indexes into jobs_ and
  // nodes_ reads rates through cluster_; both are initialized after the
  // owning members above.
  TaskRuntime tasks_;
  ClusterState nodes_;
  EventCalendar calendar_;
  std::vector<std::uint8_t> dispatch_excluded_;  // scratch for fill_slots

  std::vector<NodeEvent> failure_events_;
  SimTime now_ = 0;
  SimTime first_arrival_ = kMaxTime;
  SimTime last_finish_ = 0;
  std::vector<JobId> pending_jobs_;
  std::size_t finished_jobs_ = 0;
  Lifecycle lifecycle_ = Lifecycle::kIdle;

  RunMetrics metrics_;
};

}  // namespace dsp
