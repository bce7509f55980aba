#!/usr/bin/env python3
"""Benchmark of the DSP simulator: host time, memory and output checks.

Builds the harness (perfbench/CMakeLists.txt, a Release build of the
simulator's sources) into .bench_build/perfbench, runs one workload for a
time budget, and prints a table of every metric followed, as the last
line of standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from repetitions run with the timing decorators on.
End-to-end seconds are reference seconds: host seconds scaled by a fixed
kernel timed around every scenario (see host_speed.h), so a slow patch of
a shared host does not read as a slower program.

    python3 perfbench/run.py --workload dsp_ec2 --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all     # every metric of every workload
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-expected  # rewrite expected_seed42.json

All reads and writes stay inside the checkout; the build, the span trees
and a record of every result go under .bench_build/perfbench.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "dsp_perfbench"
EXPECTED = BENCH_DIR / "expected_seed42.json"
EXPECTED_SEED = 42

WORKLOADS = ["dsp_ec2", "dsp_real", "baselines_ec2", "ilp_small"]

# (name, unit). End-to-end metrics come from untraced repetitions; their
# seconds are reference seconds (host_speed.h).
END_TO_END = [
    ("run_s", "s"),
    ("tasks_per_s", "tasks/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# Per-layer metrics, in the harness's order, from traced repetitions.
# Every `.tail` is the highest percentile with at least ten samples
# beyond it; `.tail_pct` names that percentile and `.calls` / `.epochs`
# give the sample count.
PER_LAYER = [
    ("trace.tasks", "count"),
    ("sim.run_s", "s"),
    ("sim.init_s", "s"),
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("sched.calls", "count"),
    ("sched.s", "s"),
    ("sched.ms.p50", "ms"),
    ("sched.ms.tail", "ms"),
    ("sched.ms.tail_pct", "%"),
    ("sched.tasks_placed", "count"),
    ("dispatch.calls", "count"),
    ("dispatch.s", "s"),
    ("dispatch.ns.p50", "ns"),
    ("dispatch.ns.tail", "ns"),
    ("dispatch.ns.tail_pct", "%"),
    ("dispatch.miss_ratio", "ratio"),
    ("policy.epochs", "count"),
    ("policy.s", "s"),
    ("policy.us.p50", "us"),
    ("policy.us.tail", "us"),
    ("policy.us.tail_pct", "%"),
    ("policy.idle_ratio", "ratio"),
    ("policy.preemptions", "count"),
    ("policy.evaluations", "count"),
    ("policy.disorders", "count"),
    ("priority.calls", "count"),
    ("priority.s", "s"),
    ("lp.exact_s", "s"),
    ("lp.relax_round_s", "s"),
    ("lp.milp_nodes", "count"),
    ("lp.simplex_solves", "count"),
    ("lp.warm_start_hit_ratio", "ratio"),
    ("host.wall_run_s", "s"),
    ("host.slowdown", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and rebuilds the harness; the build log goes to stderr."""
    if not (ROOT / "src" / "sim" / "scenario.h").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    if not shutil.which("cmake"):
        raise BenchError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("configuring the harness failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise BenchError("building the harness failed")


def git_commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_harness(workload, seed, seconds, trace):
    """Runs the harness once; returns its raw result object."""
    spans = BUILD_DIR / "spans" / f"{workload}-seed{seed}-trace{trace}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans", str(spans)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        raise BenchError(f"harness timed out on {workload}")
    if p.returncode != 0 or not p.stdout.strip():
        raise BenchError(f"harness failed on {workload} (exit {p.returncode})")
    return json.loads(p.stdout.strip().splitlines()[-1])


def same(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def check_expected(raw, expected):
    """Failed operations per outcome, after comparing the simulated
    statistics with those recorded at the expected seed."""
    failed = {o["name"]: o["failed"] for o in raw["outcomes"]}
    if raw["seed"] != EXPECTED_SEED:
        return failed, []
    recorded = expected.get(raw["workload"], {})
    problems = []
    for o in raw["outcomes"]:
        want = recorded.get(o["name"])
        if want is None:
            problems.append(f"{o['name']}: no recorded statistics")
        else:
            diff = [k for k in set(want) | set(o["stats"])
                    if k not in want or k not in o["stats"]
                    or not same(want[k], o["stats"][k])]
            if not diff:
                continue
            problems.append(f"{o['name']}: differs from the recorded run in "
                            + ", ".join(sorted(diff)))
        failed[o["name"]] = o["ops"]
    return failed, problems


def median_of(values):
    return statistics.median(values) if values else 0.0


def summarize(raw, trace):
    """Metrics of one harness run: medians over its repetitions."""
    untraced = [r for r in raw["reps"] if not r["traced"]]
    if not trace:
        return {
            "run_s": median_of([r["run_s"] for r in untraced]),
            "tasks_per_s": median_of([r["tasks"] / r["run_s"]
                                      for r in untraced if r["run_s"] > 0]),
            "setup_s": median_of([r["setup_s"] for r in untraced]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    traced = [r for r in raw["reps"] if r["traced"]]
    # Counts repeat exactly across repetitions; times are medians.
    metrics = {name: (int(traced[0]["layers"][name]) if unit == "count"
                      else median_of([r["layers"][name] for r in traced]))
               for name, unit in PER_LAYER
               if not name.startswith(("trace.overhead", "host."))}
    # run_s before scaling, and how much slower than the reference the
    # host ran the kernel.
    metrics["host.wall_run_s"] = median_of([r["wall_run_s"] for r in untraced])
    metrics["host.slowdown"] = median_of([r["slowdown"] for r in untraced])
    base = median_of([r["run_s"] for r in untraced])
    overhead = median_of([r["run_s"] for r in traced]) - base
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / base if base > 0 else 0.0
    return metrics


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def bench_one(workload, seed, seconds, trace, expected):
    """Runs, checks and prints one workload; returns the result object."""
    raw = run_harness(workload, seed, seconds, trace)
    failed_by, problems = check_expected(raw, expected)
    ops = sum(o["ops"] for o in raw["outcomes"])
    failed = sum(failed_by.values())
    units = dict(END_TO_END if not trace else PER_LAYER)
    metrics = summarize(raw, trace)
    env = {
        "workload": workload, "seed": seed, "trace": trace,
        "commit": git_commit(), "build_type": raw["build_type"],
        "compiler": raw["compiler"], "nproc": os.cpu_count(),
        "dsp_threads": raw["dsp_threads"],
        "repetitions": len(raw["reps"]),
    }

    reps = [r for r in raw["reps"] if r["traced"] == bool(trace)]
    print(f"# {workload}  " + "  ".join(f"{k}={v}" for k, v in env.items()
                                        if k != "workload"))
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>16.6g} {units[name]}")
    print(f"  {'failed_ops':<26} {failed:>16d} count (of {ops} ops)")
    if not trace:
        for key in ("run_s", "wall_run_s", "slowdown"):
            runs = sorted(r[key] for r in reps)
            print(f"  {key} over {len(runs)} repetitions: "
                  + " ".join(f"{x:.3f}" for x in runs))
    for msg in raw["failures"] + problems:
        print(f"  FAILED: {msg}")

    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = BUILD_DIR / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"env": env, "result": result,
                                  "failures": raw["failures"] + problems,
                                  "raw": raw}, indent=1))
    return result


def record_expected():
    """Rewrites the recorded statistics from a run at the expected seed."""
    recorded = {}
    for w in WORKLOADS:
        raw = run_harness(w, EXPECTED_SEED, 0.1, 0)
        if any(o["failed"] for o in raw["outcomes"]):
            raise BenchError(f"{w}: output checks failed; nothing recorded")
        recorded[w] = {o["name"]: o["stats"] for o in raw["outcomes"]}
    # One outcome per line, so a behaviour change reads as a short diff.
    lines = []
    for w, outcomes in recorded.items():
        rows = [f"  {json.dumps(name)}: {json.dumps(stats, sort_keys=True)}"
                for name, stats in outcomes.items()]
        lines.append(f"{json.dumps(w)}: {{\n" + ",\n".join(rows) + "\n}")
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    log(f"wrote {EXPECTED}")


def selftest():
    """The harness's decorator checks, plus agreement of this file's metric
    tables with BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = ([w["name"] for w in spec["workloads"]] == WORKLOADS
          and [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
          and [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER)
    print(("ok  " if ok else "FAIL") + " BENCHMARK.json lists run.py's "
          "workloads and metrics")
    code = subprocess.run([str(BINARY), "--selftest"]).returncode
    return 0 if ok and code == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()
    # On SIGTERM, unwind so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (args.workload or args.selftest or args.record_expected):
        ap.error("one of --workload, --selftest, --record-expected is needed")

    try:
        t0 = time.monotonic()
        build()
        log(f"harness built in {time.monotonic() - t0:.1f} s")
        if args.selftest:
            return selftest()
        if args.record_expected:
            record_expected()
            return 0
        expected = load_expected()
        if args.workload != "all":
            result = bench_one(args.workload, args.seed, args.seconds,
                               args.trace, expected)
        else:
            # Every metric of every workload, end-to-end and per layer.
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for w in WORKLOADS:
                for trace in (0, 1):
                    r = bench_one(w, args.seed, args.seconds, trace, expected)
                    result["correct"] &= r["correct"]
                    result["attempted"] += r["attempted"]
                    result["failed"] += r["failed"]
                    for name, m in r["metrics"].items():
                        result["metrics"][f"{w}.{name}"] = m
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
