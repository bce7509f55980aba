// Preemption baselines (paper §V): Amoeba, Natjam and SRPT.
//
// All three run on top of DSP's initial schedule ("we use our initial
// schedule for all preemption methods") and, unlike DSP, are blind to task
// dependency when choosing which waiting task to bring in — so they can
// select tasks whose precedents have not finished, which the engine counts
// as *disorders* (Fig. 6(a)/7(a)).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.h"
#include "sim/policy.h"

namespace dsp {

/// Shared scaffolding: per-epoch, per-node scan where every waiting task
/// (the whole queue — these baselines have no delta window and ignore
/// dependency, so unready tasks are candidates too) may preempt a running
/// victim chosen by the subclass.
///
/// Per node, on_epoch collects the eligible *running* occupants as
/// victims and sorts them best-first. Hoarding occupants are never
/// victims, but they still count toward the attempt budget of 8 per
/// eligible occupant. It then walks a snapshot of the waiting queue and
/// rejects each entry with the cheapest test that can (DESIGN.md §10.5):
///   1. when requires_shorter_remaining(), the entry's remaining time,
///      from Engine::queued_remaining_mi, against the front victim's;
///   2. Engine::launch_blocked, which reads one state byte;
///   3. eligible_preemptor;
/// and only then builds the entry's key and tries the victims in order.
/// Every test is pure, so the order changes no decision.
class QueueScanPreemption : public PreemptionPolicy {
 public:
  void on_epoch(Engine& engine) override;

 protected:
  /// A task's ranking inputs. Simulated time stands still within an epoch
  /// and a task's inputs move only when it starts or stops, so on_epoch
  /// derives each key once per epoch: every victim's before sorting, each
  /// waiting task's when the scan reaches it.
  struct Key {
    Gid gid = kInvalidGid;
    SimTime remaining = 0;  ///< Engine::remaining_time
    double score = 0.0;     ///< SRPT priority / Natjam resource magnitude
    SimTime deadline = 0;   ///< Natjam: deadline of the task's job
  };

  /// The key of `g` in the current engine state, given its remaining time
  /// (Engine::remaining_time(g)).
  virtual Key make_key(const Engine& engine, Gid g,
                       SimTime remaining) const = 0;

  /// The key of `g` in the current engine state.
  Key key(const Engine& engine, Gid g) const {
    return make_key(engine, g, engine.remaining_time(g));
  }

  /// True when should_preempt(w, v) implies w.remaining < v.remaining.
  /// The scan then skips a waiting task whose remaining time is not below
  /// the front victim's before it reads any of the task's records.
  virtual bool requires_shorter_remaining() const { return false; }

  /// Ascending victim order: the first victim in this order is tried first.
  /// Return value: strict-weak-order "a is a better victim than b".
  virtual bool victim_order(const Key& a, const Key& b) const = 0;

  /// Whether `waiting` may preempt `victim` (priority comparison only; the
  /// engine enforces mechanics, and dependency is deliberately NOT checked
  /// — these baselines neglect it).
  virtual bool should_preempt(const Key& waiting, const Key& victim) const = 0;

  /// Whether this waiting task participates at all (Natjam restricts the
  /// preemptors to production-job tasks).
  virtual bool eligible_preemptor(const Engine& engine, Gid waiting) const {
    (void)engine;
    (void)waiting;
    return true;
  }

  /// Whether this running task may be evicted (Natjam only evicts
  /// research-job tasks).
  virtual bool eligible_victim(const Engine& engine, Gid running) const {
    (void)engine;
    (void)running;
    return true;
  }

 private:
  std::vector<Key> victims_;  // per-node scratch, sorted by victim_order
  std::vector<Gid> queue_;    // per-node waiting-queue snapshot
};

/// Amoeba (Ananthanarayanan et al., SoCC 2012): the task consuming the most
/// resources — i.e. with the longest remaining time — has the lowest
/// priority; preempted tasks resume from checkpoints.
class AmoebaPolicy : public QueueScanPreemption {
 public:
  const char* name() const override { return "Amoeba"; }
  CheckpointMode checkpoint_mode() const override {
    return CheckpointMode::kCheckpoint;
  }

 protected:
  Key make_key(const Engine& engine, Gid g, SimTime remaining) const override;
  bool requires_shorter_remaining() const override { return true; }
  bool victim_order(const Key& a, const Key& b) const override;
  bool should_preempt(const Key& waiting, const Key& victim) const override;
};

/// Natjam (Cho et al., SoCC 2013): production jobs preempt research jobs;
/// eviction picks the research task using the most resources first, the
/// maximum deadline second, the shortest remaining time third. Uses
/// on-demand checkpointing.
class NatjamPolicy : public QueueScanPreemption {
 public:
  const char* name() const override { return "Natjam"; }
  CheckpointMode checkpoint_mode() const override {
    return CheckpointMode::kCheckpoint;
  }

 protected:
  /// Natjam filters on the job tier (eligible_preemptor) and needs no
  /// remaining time per waiting task, so its scan keeps the default
  /// order: computing one per entry would only add a division.
  Key make_key(const Engine& engine, Gid g, SimTime remaining) const override;
  bool victim_order(const Key& a, const Key& b) const override;
  bool should_preempt(const Key& waiting, const Key& victim) const override;
  bool eligible_preemptor(const Engine& engine, Gid waiting) const override;
  bool eligible_victim(const Engine& engine, Gid running) const override;
};

/// SRPT's weight of waiting time (Table II: alpha = 0.5).
inline constexpr double kSrptAlpha = 0.5;
/// SRPT's weight of inverse remaining time (Table II: beta = 1).
inline constexpr double kSrptBeta = 1.0;

/// SRPT (Balasubramanian et al., JSSPP 2013): priority is the linear
/// combination kSrptAlpha * waiting time + kSrptBeta * (1 / remaining
/// time). No checkpointing — preempted tasks restart from scratch, which
/// is why SRPT shows the most preemptions in Fig. 6(d).
class SrptPolicy : public QueueScanPreemption {
 public:
  const char* name() const override { return "SRPT"; }
  CheckpointMode checkpoint_mode() const override {
    return CheckpointMode::kRestart;
  }

  /// The SRPT priority of a task given current engine state.
  double priority(const Engine& engine, Gid g) const;

 protected:
  Key make_key(const Engine& engine, Gid g, SimTime remaining) const override;
  bool requires_shorter_remaining() const override { return true; }
  bool victim_order(const Key& a, const Key& b) const override;
  bool should_preempt(const Key& waiting, const Key& victim) const override;

 private:
  /// The priority formula, given the task's remaining time.
  double priority(const Engine& engine, Gid g, SimTime remaining) const;
};

}  // namespace dsp
