#!/usr/bin/env python3
"""Records a set of bench_e2e runs for compare.py.

Usage:

    python3 bench/e2e/record.py OUT_DIR [--runs N]

For every workload of BENCHMARK.json it runs run.py with seeds 1 .. N and
saves each result line as OUT_DIR/<workload>-<seed>.json; seed 1 also runs
traced, saved as <workload>-1.trace.json.
Runs alternate between workloads seed by seed, so slow drift on the host
spreads over all of them. OUT_DIR/host.json records where the runs were
made: core count, CPU model, compiler and build type.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def cache_value(cache, key):
    for line in cache:
        if line.startswith(key + ":"):
            return line.split("=", 1)[1].strip()
    return ""


def host_info(run_seconds):
    model = ""
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    cache_path = os.path.join(ROOT, ".bench_build", "CMakeCache.txt")
    cache = open(cache_path).read().splitlines() if os.path.isfile(
        cache_path) else []
    compiler = cache_value(cache, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout
        version = out.splitlines()[0] if out else ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "compiler": version or compiler,
        "build_type": cache_value(cache, "CMAKE_BUILD_TYPE"),
        "run_seconds": run_seconds,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out_dir, exist_ok=True)
    run_py = os.path.join(HERE, "run.py")
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            for trace in ([0, 1] if seed == 1 else [0]):
                cmd = [sys.executable, run_py, "--workload", workload,
                       "--seed", str(seed), "--seconds",
                       str(spec["run_seconds"]), "--trace", str(trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: run failed",
                          file=sys.stderr)
                    return 1
                suffix = ".trace.json" if trace else ".json"
                path = os.path.join(args.out_dir,
                                    f"{workload}-{seed}{suffix}")
                with open(path, "w") as f:
                    f.write(lines[-1] + "\n")
                print(f"wrote {path}", file=sys.stderr)
    with open(os.path.join(args.out_dir, "host.json"), "w") as f:
        json.dump(host_info(spec["run_seconds"]), f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
