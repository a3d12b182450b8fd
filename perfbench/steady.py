#!/usr/bin/env python3
"""Steadiness command: runs each workload repeatedly and prints the median,
quartiles and spread of every end-to-end metric.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds N]

Run it from the root of the repository. It reads the command, the
workloads, the run length and the bounds from BENCHMARK.json, runs
`<command> --workload <w> --seed <s> --seconds <n> --trace 0` once for each
seed 1..runs, and for each metric reports the quartiles Python's
`statistics.quantiles(values, n=4)` gives, the spread (third minus first
quartile, as a share of the median) and that spread against the metric's
bound. It also reports the share of failed operations per run, which must be
the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    started = time.monotonic()
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        failures = [l for l in lines if l.startswith("CHECK FAILED")]
        sys.exit(f"{workload} seed {seed}: checks failed\n" + "\n".join(failures))
    return result, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    options = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = options.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if options.workloads:
        workloads = options.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in workloads:
        values = {}
        failed_shares = set()
        wall = []
        for seed in range(1, options.runs + 1):
            result, elapsed = run_once(bench["command"], workload, seed, seconds)
            wall.append(elapsed)
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
                flush=True)
            failed_shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {options.runs} runs, seeds 1..{options.runs}, {seconds} s each, "
              f"wall {min(wall):.1f}-{max(wall):.1f} s, failed shares {sorted(map(str, failed_shares))}")
        print(f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}{'/bound':>8}")
        for name, vs in values.items():
            median = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds[name]
            worst = max(worst, spread / bound)
            print(f"  {name:<28}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
                  f"{bound:>8.2f}{spread / bound:>8.2f}")
    print(f"\nlargest spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()
