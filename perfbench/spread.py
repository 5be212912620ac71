#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and prints, for every metric, its values,
median, and quartile spread: the distance between the first and third
quartile of the values (``statistics.quantiles(values, n=4)``) as a share
of their median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload serve_read --seeds 1-10

Run from the root of a checkout. Each run's result line is appended to
perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    cmd = bench["command"]
    values = {}
    os.makedirs("perfbench/out", exist_ok=True)
    log = open(f"perfbench/out/spread-{args.workload}.jsonl", "a")
    for seed in seeds_from(args.seeds):
        run = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else "{}"
        log.write(last + "\n")
        log.flush()
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}", file=sys.stderr)
            continue
        result = json.loads(last)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        if len(v) >= 2 and med:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- over a third of its bound"
        shown = " ".join(f"{x:.4g}" for x in v)
        print(f"{name:<24} median {med:<10.4g} spread {spread:6.3f} "
              f"bound {bound}  [{shown}]{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
