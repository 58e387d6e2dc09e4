#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the radix inference and serving stack.

    python3 perfbench/run.py --workload batch-dense|serve-wire|model-churn \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/ (the radix
library plus the benchmark program) with CMake into $CARGO_TARGET_DIR
(default .bench_build), runs one workload and prints, as its last line,
one JSON object with the keys correct, attempted, failed and metrics:
every end-to-end metric of BENCHMARK.json with --trace 0, every per-layer
metric with --trace 1.

A traced run (--trace 1) runs the workload twice with the same seed,
untraced and then traced, and reports the traced run's per-layer metrics
plus trace.overhead_frac: how much worse the workload's headline metric
was with tracing on.  The traced run writes its spans as JSON lines to
<build dir>/traces/.  See perfbench/README.md for every metric.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-dense", "serve-wire", "model-churn")
# Headline end-to-end metric per workload for the tracing overhead, and
# whether higher is better.
HEADLINE = {
    "batch-dense": ("edges_per_s", True),
    "serve-wire": ("latency_p50_ms", False),
    "model-churn": ("latency_p50_ms", False),
}
# Per-layer metrics a workload does not exercise (name prefixes), as the
# README's per-layer table marks them.  They are reported as 0; any other
# per-layer metric missing from a traced run fails it.
NOT_APPLICABLE = {
    "batch-dense": ("radixnet.regen_ms", "store.", "serve.", "net.",
                    "loadgen.", "sparse.scatter."),
    "serve-wire": ("radixnet.regen_ms", "serve.swap_ms", "serve.add_remove_ms",
                   "sparse.gather."),
    "model-churn": ("sparse.scatter.",),
}
# OpenMP threads: every core, as the radix-served daemon runs by default.
NPROC = os.cpu_count() or 1
# Wall-clock budget of one benchmark invocation after the build.
BUDGET_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure and build the benchmark; returns the binary's path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(NPROC)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "radix_perfbench")


def run_binary(binary, args, trace, deadline, build_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir, "work")]
    if trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, OMP_NUM_THREADS=str(NPROC))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail(f"workload run failed (exit {proc.returncode})")
    return result


def declared(kind):
    """Name -> unit of each `kind` metric in BENCHMARK.json, in its order."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(build_dir)
    deadline = time.monotonic() + BUDGET_S

    plain = run_binary(binary, args, 0, deadline, build_dir)
    if args.trace:
        traced = run_binary(binary, args, 1, deadline, build_dir)
        name, higher = HEADLINE[args.workload]
        u = plain["end_to_end"][name]["value"]
        t = traced["end_to_end"][name]["value"]
        metrics = dict(traced["per_layer"])
        for metric, unit in declared("per_layer").items():
            if metric not in metrics and metric.startswith(NOT_APPLICABLE[args.workload]):
                metrics[metric] = {"value": 0.0, "unit": unit}
        metrics["trace.overhead_frac"] = {
            "value": (u / t - 1.0) if higher else (t / u - 1.0),
            "unit": "fraction"}
        print("INFO tracing overhead on %s: untraced %.6g, traced %.6g"
              % (name, u, t))
        runs, kind = (plain, traced), "per_layer"
    else:
        metrics = plain["end_to_end"]
        runs, kind = (plain,), "end_to_end"

    unbounded = {k: v for k, v in plain["end_to_end"].items()
                 if k not in declared("end_to_end")}
    print("INFO unbounded end-to-end: " + ", ".join(
        "%s=%.6g %s" % (k, v["value"], v["unit"]) for k, v in unbounded.items()))
    missing = set(declared(kind)) - set(metrics)
    if missing:
        fail(f"metrics missing from the run: {sorted(missing)}")
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": runs[-1]["attempted"],
        "failed": runs[-1]["failed"],
        "metrics": {k: metrics[k] for k in declared(kind)},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
