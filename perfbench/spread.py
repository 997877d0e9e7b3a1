#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload tables --runs 5 [--seconds N]

For every metric it prints the values, their median, and the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of the median, next to the metric's bound in BENCHMARK.json.
Runs are made one after another, seeds 1..runs, with tracing off.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for i in range(args.runs):
        seed = i + 1
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        p = subprocess.run(cmd, capture_output=True, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
        if p.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(p.stderr)
            sys.exit(f"run with seed {seed} failed (exit {p.returncode})")
        res = json.loads(last)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:24s} median {med:12.6g}  spread {spread:7.3f}  bound {bound}  "
              + " ".join(f"{v:.6g}" for v in vs))


if __name__ == "__main__":
    main()
