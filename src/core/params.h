// DSP parameter set — the paper's Table II defaults.
#pragma once

#include "util/time.h"

namespace dsp {

/// All DSP tunables with the paper's Table II settings as defaults. The
/// g(k) weights theta1/theta2 (Eq. 1) live on ClusterSpec, and SRPT's
/// alpha/beta on SrptPolicy.
struct DspParams {
  // ---- Preemption window (Algorithm 1) ----
  /// delta: fraction of each waiting queue considered as preempting tasks.
  double delta = 0.35;
  /// Bounds for the adaptive-delta controller (§IV-B: "the value of delta
  /// can be dynamically adjusted").
  double delta_min = 0.05;
  double delta_max = 0.80;
  /// Adaptive controller: grow delta when more than `delta_grow_above` of
  /// the considered tasks preempted last epoch, shrink below
  /// `delta_shrink_below`.
  double delta_grow_above = 0.50;
  double delta_shrink_below = 0.10;
  bool adaptive_delta = true;

  // ---- Urgency thresholds ----
  /// epsilon: a waiting task whose allowable waiting time t^a falls to or
  /// below this becomes *urgent* and preempts regardless of priority.
  SimTime epsilon = 1 * kSecond;
  /// tau: waiting-time threshold beyond which a preempting task ignores
  /// condition C1. Table II lists 0.05 s, which would make every queued
  /// task urgent within one epoch and contradicts the paper's own Fig. 6(d)
  /// (DSP has the *fewest* preemptions); we default to 10 min and expose
  /// the knob (see DESIGN.md "Known deviations").
  SimTime tau = 10 * kMinute;

  // ---- Dependency-aware priority (Formulas 12-13) ----
  /// gamma in (0,1): level-weighting coefficient of Formula 12.
  double gamma = 0.5;
  /// omega1/2/3: weights of remaining time, waiting time and allowable
  /// waiting time in the leaf priority (Formula 13); must sum to 1.
  double omega1 = 0.5;
  double omega2 = 0.3;
  double omega3 = 0.2;

  // ---- Normalized-priority preemption (PP) ----
  /// Enable the PP filter (DSPW/oPP sets this false).
  bool normalized_pp = true;
  /// rho > 1: a preemption fires only when the priority gap exceeds rho
  /// times the global mean neighbor gap P-bar. Since P-bar =
  /// (max - min) / (n - 1) shrinks with the live-task count n, the ratio
  /// gap / P-bar measures how many *ranks* apart the two tasks sit in the
  /// global priority order; rho is therefore a rank-distance threshold.
  /// The paper sets rho "empirically" without reporting the value; 200
  /// (suppress swaps between tasks closer than ~200 ranks) reproduces the
  /// Fig. 6(d) DSP < DSPW/oPP gap at our workload sizes. The ablation
  /// bench sweeps it.
  double rho = 200.0;

  // ---- Straggler mitigation (§VI future work) ----
  /// When enabled, each epoch DSP vacates nodes whose effective speed has
  /// dropped below `straggler_threshold` x nominal: running tasks are
  /// checkpointed and their work migrates to healthy nodes.
  bool straggler_mitigation = false;
  double straggler_threshold = 0.7;
};

}  // namespace dsp
