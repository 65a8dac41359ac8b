#!/usr/bin/env python3
"""Builds and runs one workload of the lclpath pipeline benchmark.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds
the benchmark, together with the lclpath library it links, in Release
into .bench_build/pipebench (a few minutes); later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit status is the benchmark's: 0 when every
output check passed; nonzero when a check failed, the arguments are
wrong, or the build failed (then nothing is printed on stdout).
"""
import argparse
import os
import subprocess
import sys

SOURCE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "pipebench")
WORKDIR = os.path.join(".bench_build", "work")
WORKLOADS = ("decide_mix", "synth_simulate", "store_serve")


def build():
    # Configuring every time is cheap (well under a second once built) and
    # recovers from a configure that an earlier call did not finish.
    subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "pipebench", "-j",
                    str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "pipebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", WORKDIR]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
