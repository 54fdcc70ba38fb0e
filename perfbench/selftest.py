#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for one second (each of run.py's
processes still completes one pass of its request list) untraced and
traced, and asserts that each run passes its output checks and prints every
end-to-end, respectively per-layer, metric by name with the unit
BENCHMARK.json gives it. A second
untraced run with the same seed must repeat the deterministic counts, and
run.py must fail without printing a result in a directory that holds only
BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(root, workload, trace):
    command = ["python3", str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result_of(completed, what):
    lines = completed.stdout.strip().splitlines()
    assert completed.returncode == 0, f"{what}: exit code {completed.returncode}\n{completed.stdout}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {set(result)}"
    assert result["correct"] is True, f"{what}: not correct\n{completed.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    assert result["failed"] == 0, what
    return result


def check_metrics(result, wanted, what):
    names = {metric["name"] for metric in wanted}
    assert set(result["metrics"]) == names, \
        f"{what}: metrics differ: {sorted(set(result['metrics']) ^ names)}"
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], f"{what}: unit of {metric['name']}"
        assert isinstance(printed["value"], (int, float)), f"{what}: value of {metric['name']}"


def check_fails_without_sources():
    """Only BENCHMARK.json and perfbench/: no result, non-zero exit."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench")
    completed = run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0, "run.py succeeded without the library sources"
    for line in completed.stdout.splitlines():
        assert not line.startswith("{"), f"run.py printed a result without sources: {line}"


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        untraced = result_of(run(ROOT, workload, 0), f"{workload} --trace 0")
        check_metrics(untraced, SPEC["end_to_end"], f"{workload} --trace 0")
        traced = result_of(run(ROOT, workload, 1), f"{workload} --trace 1")
        check_metrics(traced, SPEC["per_layer"], f"{workload} --trace 1")
        again = result_of(run(ROOT, workload, 0), f"{workload} --trace 0, second run")
        assert again["metrics"]["circuit_ops"] == untraced["metrics"]["circuit_ops"], \
            f"{workload}: circuit_ops changed between runs with the same seed"
        print(f"ok  {workload}: {untraced['attempted']} + {traced['attempted']} requests, "
              f"circuit_ops {untraced['metrics']['circuit_ops']['value']}", flush=True)
    check_fails_without_sources()
    print("ok  no result without the library sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
