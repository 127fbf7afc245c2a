#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload.

Usage, from anywhere inside a checkout of the repository:

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The build goes to .bench_build/ at the repository root (Release, only the
library layers and the benchmark). Build output goes to stderr. The last
line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

whose metrics are the `end_to_end` list of BENCHMARK.json with --trace 0
and its `per_layer` list with --trace 1. The exit code is non-zero when the
build fails, a result is wrong, or a listed metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no UniStore sources under {ROOT}; run inside a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD, "--target", "bench_e2e",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "bench_e2e")


def parse_output(text):
    """Metric lines are `name value unit n=samples`; the last line is
    `result correct=<0|1> attempted=<n> failed=<n>`."""
    metrics, result = {}, None
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "result":
            result = dict(p.split("=", 1) for p in parts[1:])
        elif len(parts) == 4 and parts[3].startswith("n="):
            metrics[parts[0]] = (float(parts[1]), parts[2])
    return metrics, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json is missing")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}"]
    if args.trace:
        trace = os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")
        cmd.append(f"--trace={trace}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {BINARY_TIMEOUT_S} s")
    sys.stderr.write(proc.stdout)
    metrics, result = parse_output(proc.stdout)
    if result is None:
        fail(f"bench_e2e exited with {proc.returncode} and no result")

    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name not in metrics:
            fail(f"bench_e2e did not report {name}")
        value, reported_unit = metrics[name]
        if reported_unit != unit:
            fail(f"{name} reported in {reported_unit}, expected {unit}")
        out[name] = {"value": value, "unit": unit}
    correct = result.get("correct") == "1" and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
