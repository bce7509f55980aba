#!/usr/bin/env bash
# Full local CI: tier-1 build + tests, sanitizer presets, static lint,
# the srclint source rules, the dsp-analyze rule engine over the shipped
# fixtures, and a build + self-test of the benchmark harness.
#
# Stages (each skippable via DSP_CI_SKIP="stage1 stage2 ..."):
#   tier1    cmake + build + full ctest in ./build
#   asan     address/undefined preset: build + full ctest
#   tsan     thread preset: build + exactly the test binaries that start
#            threads: parallel_for's own stress tests and the scenario
#            grid runner (its only caller, whose cells each record into
#            their own metrics registry) via scenario_test (the rest of
#            the suite is single-threaded; running it under TSan adds
#            minutes, not coverage)
#   ubsan    undefined-behaviour preset (+ -fsanitize=integer where the
#            compiler supports it): build + full ctest
#   lint     tools/lint.sh (clang-tidy or strict-warning fallback)
#   srclint  dsp_tidy self-scan of src/ (must be clean, --json validated
#            by json_check) plus the seeded per-rule fixtures, which must
#            each fail naming exactly their rule
#   analyze  dsp_analyze over examples/workloads and the analysis
#            fixtures (audit fixtures are JSONL event logs), with --json
#            output validated by json_check; then trace_replay on the W004
#            fixture, whose task that fits no node must fail the run at
#            engine construction (exit 2, naming the job and the task)
#   bench-smoke  micro_bench hot-path benchmarks at a tiny min_time,
#            with the --json report validated by json_check; then
#            ablation_ilp, one of the two programs that solve the §III
#            ILP (perfbench's ilp_small is the other), at the default seed
#            and at DSP_SEED=1, each with --json validated by json_check:
#            every instance must be proven optimal, so
#            scalars.node_capped_instances must be 0 and no row may carry
#            the '*' of a solve stopped at the branch & bound node cap
#   bench-diff  micro_bench scalars compared against the committed
#            bench/BENCH_hotpath.json baseline via bench_diff; the
#            threshold is generous (CI machines are noisy) — it
#            catches order-of-magnitude slips, not drift
#   report-smoke  flight recorder end to end, for quickstart and for
#            failure_drill (node outages, a slowdown, failover
#            migrations and preemption decisions): each runs twice with
#            DSP_EVENT_LOG, its dsp_report --json is validated by
#            json_check, and a first-divergence diff of the two
#            same-seed logs must report zero divergence; failure_drill's
#            stream must also replay clean under dsp_analyze audit
#   sweep-smoke  dsp_sweep over a small scenario grid at --threads 1
#            and 4: the two --json reports must be byte-identical (the
#            grid runner's determinism contract) and pass json_check;
#            then each of the nine simulation benches, which run their
#            figure as one scenario grid, at DSP_POINTS=1 DSP_SCALE=0.02
#            with DSP_THREADS=1 and 4: the two stdouts must be
#            byte-identical;
#            then an EC2 dsp,dsp-nopp grid with --event-log-dir at
#            --threads 1 and 4, whose per-scenario JSONL event streams
#            must be byte-identical pair by pair; then the
#            40-stream scheduler x policy grid, whose streams must
#            match tests/fixtures/golden/sweep_streams.sha256, whose
#            --json must be byte-identical to the same grid run without
#            --event-log-dir (every cell unlogged), and whose 8
#            DSP-policy streams must replay clean under dsp_analyze audit;
#            then the six EC2 Amoeba/Natjam/SRPT streams at 150 jobs, on
#            DSP's and TetrisW/oDep's schedules, whose queues run 150+
#            deep, which must match
#            tests/fixtures/golden/deep_scan_streams.sha256
#   perfbench  builds the standalone benchmark harness (perfbench/
#            globs every src/ module, so a deleted or renamed module can
#            break it while tier1 stays green) and runs its self-test
set -euo pipefail

cd "$(dirname "$0")/.."
SKIP="${DSP_CI_SKIP:-}"

skipped() { [[ " $SKIP " == *" $1 "* ]]; }
banner() { echo; echo "==== ci: $1 ===="; }

if ! skipped tier1; then
  banner "tier1 build + tests"
  cmake -B build -S . >/dev/null
  cmake --build build -j
  ctest --test-dir build --output-on-failure -j
fi

if ! skipped asan; then
  banner "asan preset"
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j
  ctest --preset asan -j
fi

if ! skipped tsan; then
  banner "tsan preset (concurrency tests)"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j
  ctest --preset tsan -R 'thread_pool_stress_test|scenario_test'
fi

if ! skipped ubsan; then
  banner "ubsan preset"
  cmake --preset ubsan >/dev/null
  cmake --build --preset ubsan -j
  ctest --preset ubsan -j
fi

if ! skipped lint; then
  banner "lint"
  BUILD_DIR=build tools/lint.sh
fi

if ! skipped srclint; then
  banner "srclint (dsp_tidy source rules)"
  TIDY=build/tools/dsp_tidy
  JSON_CHECK=build/tools/json_check
  srclint_tmp=$(mktemp -d)

  echo "dsp_tidy src/ (self-scan must be clean)"
  "$TIDY" src/ --json "$srclint_tmp/tidy.json"
  "$JSON_CHECK" "$srclint_tmp/tidy.json" analyzer input.kind diagnostics summary.error

  # Seeded-violation fixtures must fail with exactly their rule.
  for f in tests/fixtures/srclint/[dc][0-9]*.cpp; do
    base=$(basename "$f")
    rule=$(echo "${base%%_*}" | tr '[:lower:]' '[:upper:]')
    if "$TIDY" "$f" >"$srclint_tmp/seed.txt" 2>&1; then
      echo "ci: $f unexpectedly scanned clean (wanted $rule)"; exit 1
    fi
    grep -q "$rule" "$srclint_tmp/seed.txt" || { echo "ci: $f did not report $rule"; exit 1; }
    if "$TIDY" "$f" --rules "$rule" >/dev/null 2>&1; then
      echo "ci: $f clean under --rules $rule"; exit 1
    fi
    echo "seeded $rule ok ($f)"
  done

  echo "dsp_tidy tests/fixtures/srclint/clean.cpp"
  "$TIDY" tests/fixtures/srclint/clean.cpp >/dev/null
  rm -rf "$srclint_tmp"
fi

if ! skipped analyze; then
  banner "dsp-analyze over fixtures"
  ANALYZE=build/tools/dsp_analyze
  JSON_CHECK=build/tools/json_check
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT

  for f in examples/workloads/*.csv tests/fixtures/analysis/clean_workload.csv; do
    echo "analyze workload $f"
    "$ANALYZE" workload "$f" --json "$tmp/out.json" >/dev/null
    "$JSON_CHECK" "$tmp/out.json" analyzer input.kind diagnostics summary.error
  done
  echo "analyze schedule tests/fixtures/analysis/clean_schedule.json"
  "$ANALYZE" schedule tests/fixtures/analysis/clean_schedule.json \
    --json "$tmp/out.json" >/dev/null
  "$JSON_CHECK" "$tmp/out.json" analyzer summary.error
  echo "analyze audit tests/fixtures/analysis/clean_audit.jsonl"
  "$ANALYZE" audit tests/fixtures/analysis/clean_audit.jsonl \
    --workload tests/fixtures/analysis/audit_workload.csv \
    --json "$tmp/out.json" >/dev/null
  "$JSON_CHECK" "$tmp/out.json" analyzer summary.error

  # Seeded-violation fixtures must fail with exactly their rule.
  declare -A seeded=(
    [workload]="w000_malformed.csv:W000 w001_cycle.csv:W001 w002_bad_parent.csv:W002 w003_tight_deadline.csv:W003 w004_oversized_demand.csv:W004 w005_invalid_structure.csv:W005"
    [schedule]="s000_malformed.json:S000 s001_dependency_order.json:S001 s002_node_overlap.json:S002 s003_deadline_violation.json:S003 s004_unplaced_task.json:S004 s005_makespan_understated.json:S005"
    [audit]="p000_malformed.jsonl:P000 p001_monotonicity.jsonl:P001 p002_priority_gap.jsonl:P002 p003_dependency_on_victim.jsonl:P003 p004_rho_normalization.jsonl:P004"
  )
  for mode in workload schedule audit; do
    for pair in ${seeded[$mode]}; do
      file="tests/fixtures/analysis/${pair%%:*}"
      rule="${pair##*:}"
      extra=""
      [ "$mode" = audit ] && extra="--workload tests/fixtures/analysis/audit_workload.csv"
      if "$ANALYZE" "$mode" "$file" $extra --rules "$rule" >"$tmp/seed.txt" 2>&1; then
        echo "ci: $file unexpectedly analyzed clean (wanted $rule)"; exit 1
      fi
      grep -q "$rule" "$tmp/seed.txt" || { echo "ci: $file did not report $rule"; exit 1; }
      echo "seeded $rule ok ($file)"
    done
  done

  # The task W004 flags statically must also stop a run: the engine rejects
  # it at construction instead of simulating to the horizon.
  echo "trace_replay tests/fixtures/analysis/w004_oversized_demand.csv"
  status=0
  build/examples/trace_replay tests/fixtures/analysis/w004_oversized_demand.csv \
    dsp dsp ec2 >"$tmp/replay.txt" 2>&1 || status=$?
  [ "$status" = 2 ] && grep -q 'job 1 task 1 ' "$tmp/replay.txt" || {
    echo "ci: trace_replay on the W004 fixture exited $status without naming job 1 task 1"
    cat "$tmp/replay.txt"; exit 1; }
fi

if ! skipped bench-smoke; then
  banner "bench smoke (micro_bench hot paths, ablation_ilp)"
  # No EXIT trap here: the analyze stage may already own it.
  smoke_tmp=$(mktemp -d)
  build/bench/micro_bench \
    --benchmark_filter='BM_Simplex|BM_Milp|BM_PriorityComputeJob|BM_ComputeAll' \
    --benchmark_min_time=0.05 \
    --json "$smoke_tmp/micro.json"
  build/tools/json_check "$smoke_tmp/micro.json" \
    bench env.scale env.seed env.points series runs scalars \
    scalars.BM_SimplexSolve_60_ns scalars.BM_MilpSolve_1_ns scalars.BM_PriorityComputeJob_1000_ns \
    scalars.BM_ComputeAllFullRecompute_20_ns \
    registry.counters registry.histograms
  # An empty seed runs ablation_ilp at its default seed.
  for seed in "" 1; do
    ilp="$smoke_tmp/ilp_seed${seed:-default}"
    env ${seed:+DSP_SEED=$seed} build/bench/ablation_ilp --json "$ilp.json" >"$ilp.txt"
    build/tools/json_check "$ilp.json" \
      bench env.seed scalars scalars.rr_over_exact_mean \
      scalars.heur_over_exact_mean scalars.node_capped_instances
    { grep -q '"node_capped_instances":0[,}]' "$ilp.json" &&
      ! grep -q '^[0-9]t/[0-9]m  *[0-9.]*\* ' "$ilp.txt"
    } || {
      echo "ci: ablation_ilp at seed ${seed:-default} stopped a solve at the node cap"
      cat "$ilp.txt"; exit 1; }
  done
  rm -rf "$smoke_tmp"
fi

if ! skipped bench-diff; then
  banner "bench diff (vs committed BENCH_hotpath.json)"
  diff_tmp=$(mktemp -d)
  build/bench/micro_bench \
    --benchmark_filter='BM_Simplex|BM_Milp|BM_PriorityComputeJob|BM_ComputeAll|BM_EngineRun|BM_SweepGrid' \
    --benchmark_min_time=0.05 \
    --json "$diff_tmp/micro.json" >/dev/null
  build/tools/bench_diff bench/BENCH_hotpath.json "$diff_tmp/micro.json" \
    --threshold 100 --json "$diff_tmp/diff.json"
  build/tools/json_check "$diff_tmp/diff.json" \
    report compared regressions threshold_pct scalars
  rm -rf "$diff_tmp"
fi

if ! skipped report-smoke; then
  banner "report smoke (flight recorder + dsp_report)"
  report_tmp=$(mktemp -d)
  REPORT=build/tools/dsp_report
  JSON_CHECK=build/tools/json_check

  for ex in quickstart failure_drill; do
    echo "$ex with DSP_EVENT_LOG (two same-seed runs)"
    DSP_EVENT_LOG="$report_tmp/$ex-a.jsonl" build/examples/$ex >/dev/null
    DSP_EVENT_LOG="$report_tmp/$ex-b.jsonl" build/examples/$ex >/dev/null

    echo "dsp_report --json ($ex)"
    "$REPORT" "$report_tmp/$ex-a.jsonl" --json "$report_tmp/report.json" >/dev/null
    "$JSON_CHECK" "$report_tmp/report.json" \
      report events jobs.count jobs.completed queueing_delay_s.count \
      preempt_latency_s.count preempt.decisions utilization.epochs \
      utilization.mean per_job

    echo "dsp_report diff ($ex, same seed, two runs: must be identical)"
    "$REPORT" diff "$report_tmp/$ex-a.jsonl" "$report_tmp/$ex-b.jsonl" \
      --json "$report_tmp/diff.json"
    "$JSON_CHECK" "$report_tmp/diff.json" report divergence events_a events_b
  done

  grep -q '"kind":"node_down"' "$report_tmp/failure_drill-a.jsonl" || {
    echo "ci: the failure_drill stream has no node_down event"; exit 1; }
  echo "dsp_analyze audit on the failure_drill stream"
  build/tools/dsp_analyze audit "$report_tmp/failure_drill-a.jsonl" \
    >"$report_tmp/audit.txt" || {
    echo "ci: the failure_drill stream did not replay clean"
    head "$report_tmp/audit.txt"; exit 1; }
  rm -rf "$report_tmp"
fi

if ! skipped sweep-smoke; then
  banner "sweep smoke (dsp_sweep grid, threads 1 vs 4)"
  sweep_tmp=$(mktemp -d)
  SWEEP=build/tools/dsp_sweep
  JSON_CHECK=build/tools/json_check

  echo "dsp_sweep small grid at --threads 1 and --threads 4"
  "$SWEEP" --cluster ec2 --sched dsp --policy dsp,srpt,none \
    --jobs 10,20 --seeds 42 --scale 0.02 \
    --threads 1 --json "$sweep_tmp/t1.json" >/dev/null
  "$SWEEP" --cluster ec2 --sched dsp --policy dsp,srpt,none \
    --jobs 10,20 --seeds 42 --scale 0.02 \
    --threads 4 --json "$sweep_tmp/t4.json" >/dev/null

  echo "reports must be byte-identical (determinism contract)"
  cmp "$sweep_tmp/t1.json" "$sweep_tmp/t4.json"

  "$JSON_CHECK" "$sweep_tmp/t1.json" \
    sweep.scale sweep.scenarios scenarios

  # A bench's tables must not depend on how many grid workers run its
  # cells.
  echo "simulation benches at DSP_THREADS=1 and 4 (stdout must be identical)"
  for b in fig5_makespan fig6_preemption_cluster fig7_preemption_ec2 \
    fig8_scalability ablation_pp ablation_gamma ablation_delta \
    ablation_failures ablation_locality; do
    for n in 1 4; do
      DSP_POINTS=1 DSP_SCALE=0.02 DSP_THREADS=$n build/bench/$b \
        >"$sweep_tmp/$b-t$n.txt"
    done
    cmp "$sweep_tmp/$b-t1.txt" "$sweep_tmp/$b-t4.txt"
  done

  # The per-scenario event streams must not depend on how many grid
  # workers run the scenarios side by side.
  echo "dsp_sweep EC2 dsp,dsp-nopp event streams at --threads 1 and 4"
  mkdir -p "$sweep_tmp/ev1" "$sweep_tmp/ev4"
  for n in 1 4; do
    "$SWEEP" --cluster ec2 --sched dsp --policy dsp,dsp-nopp \
      --jobs 150,300 --seeds 42 --scale 0.1 --threads $n \
      --event-log-dir "$sweep_tmp/ev$n" >/dev/null
  done
  streams=0
  for f in "$sweep_tmp"/ev1/*.jsonl; do
    cmp "$f" "$sweep_tmp/ev4/$(basename "$f")"
    streams=$((streams + 1))
  done
  if [[ $streams -ne 4 ]]; then
    echo "ci: expected 4 event streams, found $streams"; exit 1
  fi

  # Byte-identity oracle for every scheduler x policy pair: the grid's 40
  # per-scenario streams must match the committed digests (re-record
  # command in tests/fixtures/golden/README.md).
  echo "dsp_sweep golden event streams (every scheduler x policy)"
  golden="$PWD/tests/fixtures/golden/sweep_streams.sha256"
  mkdir -p "$sweep_tmp/golden"
  golden_grid=(--cluster ec2,real --sched dsp,aalo,tetris-simdep,tetris-nodep
    --policy none,dsp,amoeba,natjam,srpt --jobs 40 --seeds 42 --scale 0.1
    --threads 4)
  "$SWEEP" "${golden_grid[@]}" --event-log-dir "$sweep_tmp/golden" \
    --json "$sweep_tmp/golden-logged.json" >/dev/null
  (cd "$sweep_tmp/golden" && sha256sum --quiet --strict -c "$golden")
  written=$(find "$sweep_tmp/golden" -name '*.jsonl' | wc -l)
  if [[ $written -ne $(wc -l <"$golden") ]]; then
    echo "ci: $written golden streams written, digest file lists $(wc -l <"$golden")"
    exit 1
  fi

  # Without --event-log-dir every cell runs with no log, which skips the
  # decision encoding and DSP's log-only priority reads: all 40 cells
  # must still report exactly what the logged run reported.
  echo "dsp_sweep golden grid unlogged (--json must match the logged run)"
  "$SWEEP" "${golden_grid[@]}" --json "$sweep_tmp/golden-unlogged.json" >/dev/null
  cmp "$sweep_tmp/golden-logged.json" "$sweep_tmp/golden-unlogged.json"

  # Audit replay of every Algorithm-1 decision the DSP policy made in the
  # grid (about 75k preempt_decision lines), straight from the streams.
  echo "dsp_analyze audit on the golden DSP-policy streams"
  replayed=0
  for f in "$sweep_tmp"/golden/*-dsp-j40-s42.jsonl; do
    build/tools/dsp_analyze audit "$f" >"$sweep_tmp/audit.txt" || {
      echo "ci: $f did not replay clean"; head "$sweep_tmp/audit.txt"; exit 1; }
    replayed=$((replayed + 1))
  done
  if [[ $replayed -ne 8 ]]; then
    echo "ci: expected 8 DSP-policy streams, replayed $replayed"; exit 1
  fi

  # The 40-job grid keeps the preemption baselines' queues about 43 deep;
  # at 150 jobs they run 150+ deep, where the queue scans' cheap filters
  # (DESIGN.md §10.5) reject most entries. Same oracle, deeper queues.
  echo "dsp_sweep deep-queue event streams (Amoeba, Natjam, SRPT at 150 jobs)"
  deep="$PWD/tests/fixtures/golden/deep_scan_streams.sha256"
  mkdir -p "$sweep_tmp/deep"
  "$SWEEP" --cluster ec2 --sched dsp,tetris-nodep --policy amoeba,natjam,srpt \
    --jobs 150 --seeds 42 --scale 0.1 --threads 4 \
    --event-log-dir "$sweep_tmp/deep" >/dev/null
  (cd "$sweep_tmp/deep" && sha256sum --quiet --strict -c "$deep")
  written=$(find "$sweep_tmp/deep" -name '*.jsonl' | wc -l)
  if [[ $written -ne $(wc -l <"$deep") ]]; then
    echo "ci: $written deep streams written, digest file lists $(wc -l <"$deep")"
    exit 1
  fi
  rm -rf "$sweep_tmp"
fi

if ! skipped perfbench; then
  banner "perfbench (benchmark harness build + self-test)"
  python3 perfbench/run.py --selftest
fi

echo
echo "==== ci: all stages passed ===="
