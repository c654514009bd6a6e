#!/usr/bin/env python3
"""Tiny-size smoke test of every benchmark workload.

    python3 knnbench/smoke_test.py [--binary .bench_build/knn_bench]

Runs each workload of BENCHMARK.json, and serve-churn (runnable but not
listed there), at --scale tiny, untraced and traced, and checks that the
run exits 0, that its last stdout line is the result object with a
correct run, and that it reports exactly the metric names and units
BENCHMARK.json lists for that mode. Without --binary the driver
is built and run through knnbench/run.py. Also checks that run.py fails,
without printing a result, when the benchmark files sit alone in a
directory with no knnpc sources.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Workloads knn_bench runs that BENCHMARK.json does not list.
UNLISTED = ["serve-churn"]


def expected(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(base, name, trace):
    command = base + ["--workload", name, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--scale", "tiny"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" %
                             (name, trace, out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(result, want, label):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], \
        label + ": result keys " + str(sorted(result))
    assert result["correct"] is True, label + ": not correct"
    assert result["attempted"] >= 1, label + ": nothing attempted"
    assert result["failed"] == 0, label + ": failed operations"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, "%s: metrics differ from BENCHMARK.json\n" \
        "  missing: %s\n  extra: %s\n  unit mismatch: %s" % (
            label, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(k for k in set(got) & set(want) if got[k] != want[k]))
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), label + ": " + k


def check_fails_without_sources():
    with tempfile.TemporaryDirectory() as alone:
        shutil.copytree(HERE, os.path.join(alone, "knnbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        out = subprocess.run(
            ["python3", "knnbench/run.py", "--workload", "build-serial",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=alone, capture_output=True, text=True, timeout=180)
        assert out.returncode != 0, "run.py succeeded without sources"
        assert '"correct"' not in out.stdout, "run.py printed a result"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", help="prebuilt knn_bench driver")
    args = parser.parse_args()
    base = [args.binary] if args.binary else \
        ["python3", os.path.join(HERE, "run.py")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = [(0, expected(spec, "end_to_end")), (1, expected(spec, "per_layer"))]
    for name in [w["name"] for w in spec["workloads"]] + UNLISTED:
        for trace, want in modes:
            label = "%s trace=%d" % (name, trace)
            check_result(run_workload(base, name, trace), want, label)
            print("ok  " + label)
    check_fails_without_sources()
    print("ok  run.py fails without knnpc sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
