// Umbrella header for the DSP library.
//
// DSP — Dependency-aware Scheduling and Preemption — reproduces Liu et
// al., "Leveraging Dependency in Scheduling and Preemption for High
// Throughput in Data-Parallel Clusters" (IEEE CLUSTER 2018) as a
// self-contained C++20 library. Include this header to get the full
// public API; fine-grained headers are listed per subsystem below.
//
// Typical use:
//
//   #include "dsp.h"
//   using namespace dsp;
//
//   WorkloadConfig cfg;                       // §V workload recipe
//   cfg.job_count = 150;
//   auto jobs = WorkloadGenerator(cfg, 42).generate();
//
//   DspSystem system;                         // Table II defaults
//   RunMetrics m = system.run(ClusterSpec::real_cluster(), jobs);
//
// Every setting has one home: a DspParams field when some caller changes
// it, else a named constant in the header that documents it.
//
// See README.md for a walkthrough and DESIGN.md for the architecture.
#pragma once

// Job / task / dependency-DAG model.
#include "dag/job.h"        // Job, JobSet, JobSize, JobTier
#include "dag/task.h"       // Task, Resources, data-locality fields
#include "dag/task_graph.h" // TaskGraph: levels, topo order, reachability
#include "dag/validate.h"   // structural validation + DAG shape limits

// LP / ILP solver substrate (the CPLEX stand-in).
#include "lp/milp.h"     // branch & bound over LP relaxations
#include "lp/model.h"    // Model / LinearExpr / Solution
#include "lp/simplex.h"  // bounded-variable simplex, warm start

// Workload synthesis and trace I/O.
#include "trace/stats.h"     // workload shape statistics
#include "trace/trace_io.h"  // CSV trace reader/writer
#include "trace/workload.h"  // WorkloadGenerator (§V recipe)

// Discrete-event cluster simulator.
#include "sim/cluster.h"    // NodeSpec, ClusterSpec (real_cluster / ec2)
#include "sim/engine.h"     // Engine, EngineParams, sigma and t^r
#include "sim/failures.h"   // FailurePlan: outages + stragglers
#include "sim/invariants.h" // whole-run invariant checking
#include "sim/policy.h"     // Scheduler / PreemptionPolicy interfaces
#include "sim/recorder.h"   // TimelineRecorder (Gantt traces from events)
#include "sim/run_metrics.h"

// The DSP system (paper's contribution).
#include "core/dsp_scheduler.h"  // §III dependency-weighted scheduling
#include "core/dsp_system.h"     // DspSystem façade + simulate()
#include "core/ilp_model.h"      // §III ILP + relax-and-round
#include "core/params.h"         // DspParams + constants (Table II)
#include "core/preemption.h"     // §IV Algorithm 1 + PP
#include "core/priority.h"       // Formulas 12-13

// Baselines evaluated in §V.
#include "baselines/aalo.h"
#include "baselines/preempt_baselines.h"  // Amoeba, Natjam, SRPT
#include "baselines/tetris.h"

// Reporting.
#include "metrics/report.h"  // MetricSeries, summarize()
