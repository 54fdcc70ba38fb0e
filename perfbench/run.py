#!/usr/bin/env python3
"""Repository benchmark: target state -> verified circuit, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the mqsp library plus the benchmark client) in
.bench_build/ with CMake in Release mode and runs one workload in PROCESSES
client processes one after the other, each for an equal share of the
window. It checks every output, pools the processes' samples and prints a
report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced processes and reports the per-layer metrics
of the traced ones, including the tracing overhead between the two kinds.
The spans of the traced processes are written to
.bench_build/perfbench-traces/. The exit code is 0 only when every check
passed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "mqsp_perfbench"
RECORDS = BUILD / "perfbench-records.json"
TRACES = BUILD / "perfbench-traces"
SPEC = ROOT / "BENCHMARK.json"

#: Every run must end within this many seconds after the build.
RUN_LIMIT_S = 170.0
#: Client processes per run, each measuring an equal share of the window.
#: How fast a process runs varies by about +-15 % from one process to the
#: next on a shared machine, so one run pools many of them.
PROCESSES = 20


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark client; raises on failure."""
    # The compiler's temporary files stay inside the checkout too.
    scratch = BUILD / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], stdout=sys.stderr, check=True,
                   env=env)


def run_client(workload, seed, seconds, trace, deadline, trace_out=None):
    """Run the client once and return its JSON report."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=max(1.0, deadline - time.monotonic()))
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: client exited with code {result.returncode}")
    return json.loads(lines[-1])


def binary_digest():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def check_repeat(workload, seed, counts):
    """The per-pass counts of a seeded workload must repeat exactly on every
    run of the same binary with the same seed. Returns an error or None."""
    key = f"{workload}|{seed}|{binary_digest()}"
    records = {}
    if RECORDS.exists():
        try:
            records = json.loads(RECORDS.read_text())
        except ValueError:
            records = {}
    previous = records.get(key)
    if previous is not None and previous != counts:
        return f"counts {counts} differ from an earlier run with the same seed: {previous}"
    records[key] = counts
    RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True))
    return None


def nearest_rank(values, share):
    """Smallest sample with at least `share` of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def end_to_end(reports):
    """The end-to-end metrics of one benchmark run, pooled over its processes."""
    latencies = [v for r in reports for v in r["latencies_ms"]]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "latency_p50_ms": nearest_rank(latencies, 0.5),
        "latency_p90_ms": nearest_rank(latencies, 0.9),
        "throughput_rps": (attempted - failed) / sum(r["window_s"] for r in reports),
        "circuit_ops": reports[0]["counts"]["circuit_ops"],
        # A process in which every request threw has verified nothing (null).
        "fidelity_min": min((r["fidelity_min"] for r in reports
                             if r["fidelity_min"] is not None), default=0.0),
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def per_layer(untraced, traced):
    """Per-layer metrics: each the median over the traced processes, plus the
    tracing overhead between the pooled untraced and traced latencies."""
    values = {name: statistics.median(r["per_layer"][name] for r in traced)
              for name in traced[0]["per_layer"]}
    untraced_ms = statistics.mean(v for r in untraced for v in r["latencies_ms"])
    traced_ms = statistics.mean(v for r in traced for v in r["latencies_ms"])
    values["trace.untraced_mean_ms"] = untraced_ms
    values["trace.traced_mean_ms"] = traced_ms
    values["trace.overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    trace = args.trace == 1
    window = args.seconds / PROCESSES
    # With --trace 1 the processes alternate untraced and traced, so both
    # halves see the same host conditions.
    traced_flags = [trace and i % 2 == 1 for i in range(PROCESSES)]
    reports = []
    try:
        if trace:
            TRACES.mkdir(exist_ok=True)
        for i, traced in enumerate(traced_flags):
            trace_out = TRACES / f"{args.workload}-{args.seed}-{i}.jsonl" if traced else None
            reports.append(run_client(args.workload, args.seed, window, traced, deadline,
                                      trace_out))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as error:
        log(f"run failed: {error}")
        return 2

    errors = [e for r in reports for e in r["errors"]]
    if any(r["counts"] != reports[0]["counts"] for r in reports):
        errors.append(f"counts differ between processes: {[r['counts'] for r in reports]}")
    repeat_error = check_repeat(args.workload, args.seed, reports[0]["counts"])
    if repeat_error:
        errors.append(repeat_error)

    if trace:
        values = per_layer([r for r, t in zip(reports, traced_flags) if not t],
                           [r for r, t in zip(reports, traced_flags) if t])
        wanted = spec["per_layer"]
    else:
        values = end_to_end(reports)
        wanted = spec["end_to_end"]

    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None:
            errors.append(f"metric {metric['name']} was not measured")
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = not errors and failed == 0

    print(f"perfbench {args.workload} seed={args.seed} threads={reports[0]['threads']} "
          f"processes={PROCESSES} requests={attempted} failed={failed} "
          f"pass={reports[0]['pass_requests']} requests "
          f"window={sum(r['window_s'] for r in reports):.2f}s")
    if trace:
        print(f"  untraced mean latency {values['trace.untraced_mean_ms']:.4f} ms, traced "
              f"{values['trace.traced_mean_ms']:.4f} ms, tracing overhead "
              f"{values['trace.overhead_pct']:+.2f}%")
        print(f"  {'layer':<10} {'total ms/req':>13} {'self ms/req':>12}")
        for layer in ("dd", "approx", "synth", "opt", "transpile", "circuit", "sim", "mdd",
                      "serve", "bench"):
            total = values.get(f"{layer}.total_ms", values.get(f"{layer}.self_ms", 0.0))
            print(f"  {layer:<10} {total:>13.4f} {values.get(f'{layer}.self_ms', 0.0):>12.4f}")
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric['value']:>16.6g} {metric['unit']}")
    for error in errors[:8]:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
