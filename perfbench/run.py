#!/usr/bin/env python3
"""Run one workload of the two-clock TPC-C benchmark and print its result.

    python3 perfbench/run.py --workload tpcc-write --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 42

Run it from the root of the repository.  It builds perfbench/tellperf.exe
with dune, runs it once, checks its outputs and prints, as the last line of
standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones (the traced run also writes its spans to
.perfbench/trace-<workload>-<seed>.json).  A run whose output check fails
(consistency violations, an index-flusher drain that gave up, flusher
errors, dropped messages) exits 1.  --workload all runs every workload in
turn and prints a table of every end-to-end metric with its unit.

The measured window is fixed in simulated time per workload (see
perfbench/README.md), so simulated metrics are exact for a seed; --seconds
is accepted for the calling convention and does not change the window.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "tellperf.exe")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/tellperf.exe"],
            cwd=ROOT,
            # No shared build cache: the build reads and writes only the checkout.
            env=dict(os.environ, DUNE_CACHE="disabled"),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed (dune exit %d)" % proc.returncode)


def run_once(workload, seed, trace):
    args = [os.path.join(ROOT, EXE), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if trace:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--trace-out", os.path.join(out_dir, "trace-%s-%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(
            args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail("%s seed %d: no result within %d s" % (workload, seed, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("%s seed %d: tellperf exited %d" % (workload, seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s seed %d: tellperf printed nothing" % (workload, seed))
    return json.loads(lines[-1])


def verdict(result, spec, trace):
    """The result line for one run, or an exit on a failed check."""
    if result["checks_failed"] > 0:
        for v in result["violations"]:
            print("perfbench: check failed: " + v, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["checks_failed"], "metrics": {}}))
        fail("%d output check(s) failed" % result["checks_failed"])
    sim = result["sim"]
    if sim["committed"] <= 0 or sim["new_order_commits"] <= 0:
        fail("no committed transactions in the window")
    source = result["layer"] if trace else result["e2e"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            fail("metric %s missing from the run" % m["name"])
        got = source[m["name"]]
        if got["unit"] != m["unit"]:
            fail("metric %s: unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    return {"correct": True, "attempted": result["attempted"], "failed": 0, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %s (one of %s, or all)" % (args.workload, ", ".join(names)))
    build()
    if args.workload != "all":
        print(json.dumps(verdict(run_once(args.workload, args.seed, args.trace), spec, args.trace)))
        return
    for name in names:
        line = verdict(run_once(name, args.seed, args.trace), spec, args.trace)
        print("%s (seed %d, %d transactions attempted, 0 checks failed)" % (name, args.seed, line["attempted"]))
        for metric, v in line["metrics"].items():
            print("  %-34s %16.6g %s" % (metric, v["value"], v["unit"]))


if __name__ == "__main__":
    main()
