#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the benchmark
driver takes it: N runs per workload, each on another --seed; for each
metric the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside the
bound BENCHMARK.json fixes for it.

    python3 harness/spread.py [--runs 10] [--first-seed 1] [--workload NAME]... [--out FILE]

Run it from the repo root on an otherwise idle host.  Exit code 1 when a
spread (setup_s excepted, as in the driver) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", help="write every run's values here as JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    over = False
    raw = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for run in range(args.runs):
            seed = args.first_seed + run
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            start = time.monotonic()
            done = subprocess.run(command, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} ops failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"{workload}: {args.runs} runs, {statistics.median(walls):.1f} s each", flush=True)
        for name, samples in values.items():
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if spread > bounds[name] and name != "setup_s":
                flag = "  OVER BOUND"
                over = True
            elif spread > bounds[name] / 3:
                flag = "  above a third of the bound"
            print(f"  {name:<14} median {median:>14.4f}  iqr/median {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
