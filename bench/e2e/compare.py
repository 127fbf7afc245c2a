#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, metric by metric.

Usage:

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR

Each directory holds untraced runs as `<workload>-<seed>.json`, each file
the JSON line run.py prints (record.py writes such directories). Directions
and bounds come from BENCHMARK.json's `end_to_end` list. For every workload
and metric the table shows both sides' median and quartiles, the share of
seed-paired runs the new side won (ties count for neither) and a verdict:

  improved    new wins >= 9/10 of the pairs and the medians differ by more
              than the base's interquartile range, in the better direction
  regressed   the new median is worse than the base median by more than
              the metric's bound; for a virtual metric (simulated latency,
              messages, bytes) on seeds both sides ran, the per-seed
              change averaged over those seeds is worse by more than 1%
  unresolved  the base's own interquartile range is wider than the bound,
              and not every new run beats every base run
  ok          none of the above: within the bound

The virtual metrics repeat exactly for a seed, so on paired seeds any
difference in them is a real change in behaviour, not noise; BENCHMARK.json's
wider bounds are for medians over different seeds. The exit code is 1 on any
regression, any rise in a workload's failed fraction, and any workload that
is missing on one side or shares no seed with the other.
"""

import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN_FILE = re.compile(r"^(?P<workload>.+)-(?P<seed>\d+)\.json$")
# End-to-end metrics of the virtual clock, and how far they may worsen on
# paired seeds.
VIRTUAL = {"read_p50_ms", "read_p99_ms", "msgs_per_op", "kb_per_op"}
PAIRED_BOUND = 0.01


def load_runs(directory):
    """{workload: {seed: result}} for the untraced runs in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        match = RUN_FILE.match(os.path.basename(path))
        if not match:
            continue
        with open(path) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        runs.setdefault(match["workload"], {})[int(match["seed"])] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, base, new, pairs):
    """`base`/`new` are value lists; `pairs`, never empty, are (base, new)
    by seed."""
    lower_better = metric["better"] == "lower"
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)

    def better(a, b):  # a better than b
        return a < b if lower_better else a > b

    won = sum(1 for b, n in pairs if better(n, b)) / len(pairs)
    gain = (bmed - nmed) if lower_better else (nmed - bmed)
    if won >= 0.9 and gain > (b3 - b1):
        return "improved", won
    if metric["name"] in VIRTUAL:
        worse = statistics.mean(
            ((n - b) if lower_better else (b - n)) / abs(b) if b else 0.0
            for b, n in pairs)
        return ("regressed" if worse > PAIRED_BOUND else "ok"), won
    if -gain > metric["bound"] * abs(bmed):
        return "regressed", won
    all_better = all(better(n, b) for n in new for b in base)
    if (b3 - b1) > metric["bound"] * abs(bmed) and not all_better:
        return "unresolved", won
    return "ok", won


def failed_frac(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base_runs, new_runs = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    bad = False
    header = (f"{'workload':12} {'metric':15} {'base q1/med/q3':>32} "
              f"{'new q1/med/q3':>32} {'won':>5}  verdict")
    print(header)
    print("-" * len(header))
    workloads = {w["name"] for w in spec["workloads"]}
    for workload in sorted(workloads | set(base_runs) | set(new_runs)):
        base, new = base_runs.get(workload, {}), new_runs.get(workload, {})
        seeds = sorted(set(base) & set(new))
        if not seeds:
            side = "no runs on one side" if not base or not new else \
                "no seed on both sides"
            print(f"{workload:12} {side}; regressed")
            bad = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base.values()]
            n = [r["metrics"][name]["value"] for r in new.values()]
            pairs = [(base[s]["metrics"][name]["value"],
                      new[s]["metrics"][name]["value"]) for s in seeds]
            result, won = verdict(metric, b, n, pairs)
            bad = bad or result == "regressed"
            bq, nq = quartiles(b), quartiles(n)
            print(f"{workload:12} {name:15} "
                  f"{bq[0]:10.4g} {bq[1]:10.4g} {bq[2]:10.4g} "
                  f"{nq[0]:10.4g} {nq[1]:10.4g} {nq[2]:10.4g} "
                  f"{won:5.2f}  {result}")
        fb = failed_frac(base.values())
        fn = failed_frac(new.values())
        rose = fn > fb
        bad = bad or rose
        print(f"{workload:12} {'failed_frac':15} {fb:32.4g} {fn:32.4g} "
              f"{'':5}  {'regressed' if rose else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
