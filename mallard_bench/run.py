#!/usr/bin/env python3
"""Builds mallard_bench from this checkout and runs one workload (or all).

    python3 mallard_bench/run.py --workload olap_tpch --seed 1 --seconds 25 --trace 0
    python3 mallard_bench/run.py --workload all --seed 1 --out run.json
    python3 mallard_bench/run.py --workload all --smoke

The build goes to .bench_build/ at the checkout root, and so do the
scratch database files and trace files. The last line of standard output
is the benchmark's JSON result; build output goes to standard error.
A single workload's exit code is the benchmark binary's.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "mallard_bench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "mallard_bench")
WORKLOADS = ["olap_tpch", "host_export", "dashboard", "out_of_core"]
CHILD_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "mallard_bench", "-j", "2"],
        stdout=sys.stderr, check=True)


def run_one(args, workload, out_file):
    scratch = os.path.join(BUILD_ROOT, "run-%d-%s" % (os.getpid(), workload))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", scratch]
    if args.smoke:
        command.append("--smoke")
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, "%s-seed%d.json" % (workload, args.seed))
        command += ["--trace-file", trace_file]
        print("trace: %s" % trace_file, file=sys.stderr)
    if out_file:
        command += ["--out", out_file]
    try:
        return subprocess.run(command, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("mallard_bench: %s timed out" % workload, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default 25, smoke 2)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data, same code path and oracles")
    parser.add_argument("--out", help="write the run record(s) as JSON here")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 2 if args.smoke else 25

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("mallard_bench: build failed: %s" % error, file=sys.stderr)
        return 1

    if args.workload != "all":
        return run_one(args, args.workload, args.out)

    records = []
    status = 0
    for workload in WORKLOADS:
        record_file = os.path.join(BUILD_ROOT, "record-%d-%s.json" % (os.getpid(), workload))
        code = run_one(args, workload, record_file)
        if code != 0:
            print("mallard_bench: %s exited with %d" % (workload, code), file=sys.stderr)
            status = code
        elif os.path.exists(record_file):
            with open(record_file) as f:
                records.append(json.load(f))
        if os.path.exists(record_file):
            os.remove(record_file)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(records, f, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
