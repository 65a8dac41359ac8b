#!/usr/bin/env python3
"""Checks that the benchmark repeats: runs every workload over several seeds
and reports each end-to-end metric's median and quartile spread.

    python3 pipebench/spread.py [--workloads a,b] [--seeds 10] [--save runs.json]
                                [--against earlier.json]

Run it from the root of a checkout. The spread of a metric is the distance
between the first and third quartile of its per-seed values (Python's
statistics.quantiles(values, n=4)) as a share of their median. A metric is
flagged when its spread exceeds the bound in BENCHMARK.json (setup_s
excepted), and, with --against, when its median is worse than the earlier
set's by more than the bound. Exits 1 if anything is flagged or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: an output check failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def worse_by(metric, before, after):
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the per-seed values here")
    parser.add_argument("--against", help="a file written by --save to compare medians with")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    values = {}
    flagged = False
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            try:
                runs.append(run_once(workload, seed, spec["run_seconds"]))
            except RuntimeError as error:
                print(f"FAILED {error}")
                flagged = True
        values[workload] = runs
        for metric in spec["end_to_end"]:
            name = metric["name"]
            series = [run[name] for run in runs if name in run]
            if len(series) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            line = (f"{workload:15} {name:12} median {q2:14.6g}  spread {spread:7.2%}"
                    f"  bound {metric['bound']:.0%}")
            bad = name != "setup_s" and spread > metric["bound"]
            if workload in earlier:
                before = statistics.median(run[name] for run in earlier[workload])
                change = worse_by(metric, before, q2)
                line += f"  worse by {change:+7.2%}"
                bad = bad or change > metric["bound"]
            flagged = flagged or bad
            print(line + ("  <-- FLAGGED" if bad else ""))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
