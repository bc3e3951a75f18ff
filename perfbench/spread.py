#!/usr/bin/env python3
"""Measure the seed spread of every end-to-end metric.

    python3 perfbench/spread.py --workloads tpcc-write,tpcc-read --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --record perfbench/spread.json

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for each end-to-end metric its median, its quartile spread
(Q3 - Q1 as a share of the median, from statistics.quantiles(n=4)) and its
bound from BENCHMARK.json.  A spread above a third of its bound is marked
"!"; setup_s is exempt, its spread is reported but not gated.  --record
writes the per-run values and the medians to a JSON file, the recorded
spread the self-test compares a fresh seed against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "15", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("spread: %s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--record", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seeds_of(args.seeds)
    recorded = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed))
            print("%s seed %d: %s" % (workload, seed, json.dumps(runs[-1])), flush=True)
        medians = {}
        print("%s over seeds %s:" % (workload, args.seeds))
        for m in spec["end_to_end"]:
            med, s = spread([r[m["name"]] for r in runs])
            medians[m["name"]] = med
            flag = "!" if s > m["bound"] / 3 and m["name"] != "setup_s" else " "
            print("  %-22s median %14.6g  spread %6.3f  bound %.2f %s" % (m["name"], med, s, m["bound"], flag))
        recorded[workload] = {"seeds": seeds, "runs": runs, "medians": medians}
    if args.record:
        with open(args.record, "w") as f:
            json.dump(recorded, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
