#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed on each workload
(untraced) and prints, per metric, the median of the per-run values and
their spread: the distance between the first and third quartile as a
share of the median (Python's statistics.quantiles(n=4)). The spread of
the raw (uncalibrated) host times, which every run prints on its
`# raw` line, is shown next to the calibrated one.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--seconds N]

Run from the root of the repository.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: run not correct:\n{proc.stdout}")
    raw_line = next(line for line in lines if line.startswith("# raw"))
    raw = {k: float(v) for k, v in re.findall(r"(\w+)=([0-9.e+-]+)", raw_line)}
    return {k: m["value"] for k, m in result["metrics"].items()}, raw


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    args = parser.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    lo, hi = (int(x) for x in args.seeds.split("-"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in workloads:
        cal, raw = {}, {}
        for seed in range(lo, hi + 1):
            c, r = run(bench["command"], workload, seed, seconds)
            for k, v in c.items():
                cal.setdefault(k, []).append(v)
            for k, v in r.items():
                raw.setdefault(k, []).append(v)
        print(f"{workload}: seeds {lo}-{hi}, {seconds} s per run")
        print(f"  {'metric':<12} {'median':>12} {'spread':>8} {'bound':>6} {'raw median':>12} {'raw spread':>10}")
        for name, values in cal.items():
            r = raw.get(name)
            raw_cols = f"{statistics.median(r):>12.5g} {spread(r):>10.2%}" if r else ""
            print(
                f"  {name:<12} {statistics.median(values):>12.5g} {spread(values):>8.2%}"
                f" {bounds.get(name, float('nan')):>6} {raw_cols}"
            )
        for name in raw.keys() - cal.keys():
            r = raw[name]
            print(f"  {name:<12} {'':>12} {'':>8} {'':>6} {statistics.median(r):>12.5g} {spread(r):>10.2%}")
        print(f"  values: {json.dumps(cal)}")
        print(f"  raw values: {json.dumps(raw)}", flush=True)


if __name__ == "__main__":
    main()
