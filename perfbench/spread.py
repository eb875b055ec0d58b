#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

    python3 perfbench/spread.py --workload mine-dense --runs 10
    python3 perfbench/spread.py --workload mine-dense --runs 5 --trace 1

Run it from the root of a checkout. Run i uses seed i, for the
run_seconds that BENCHMARK.json fixes. For every metric it prints the
median, the quartiles (statistics.quantiles, n=4), min, max and the
spread (q3 - q1) / median, the figure a bound in BENCHMARK.json is held
against. --trace 1 summarizes the per-layer metrics of traced runs
instead. --json-out also writes the raw values and the summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    values = {}
    units = {}
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            print("seed %d: run.py exited %d" % (seed, out.returncode))
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: incorrect result %s" % (seed, result))
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d done" % seed, file=sys.stderr, flush=True)

    summary = {name: summarize(v) for name, v in values.items()}
    print("%-28s %12s %12s %12s %12s %12s %7s" %
          ("metric", "median", "q1", "q3", "min", "max", "spread"))
    for name, s in summary.items():
        print("%-28s %12.6g %12.6g %12.6g %12.6g %12.6g %6.1f%%" %
              (name, s["median"], s["q1"], s["q3"], s["min"], s["max"],
               100 * s["spread"]))
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "trace": args.trace, "seeds": [1, args.runs],
                       "units": units, "values": values, "summary": summary},
                      f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
