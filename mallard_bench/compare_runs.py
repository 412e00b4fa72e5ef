#!/usr/bin/env python3
"""Compares two sets of mallard_bench runs, or summarizes one set.

    python3 mallard_bench/compare_runs.py base/*.json --vs change/*.json
    python3 mallard_bench/compare_runs.py runs/*.json

Each file holds one run record (`run.py --out`) or a list of them (`run.py
--workload all --out`). For every (workload, metric) the tool prints each
set's median and quartiles, and the spread: the distance between the
quartiles as a share of the median. With --vs it then gives a verdict
against the metric's bound in BENCHMARK.json:

    agree       the medians differ by no more than the bound
    better      the second set is better by more than the bound
    WORSE       the second set is worse by more than the bound
    unresolved  a set's spread is wider than the bound, so the difference
                cannot be told from noise

When every run of one set beats every run of the other, the direction is
known however wide the spreads are: the verdict then follows the medians
alone, and is never unresolved. Per-layer metrics have no bound and get no
verdict. The exit code is 1 when any pair is WORSE or any run was not
correct.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_records(paths):
    records = []
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        records.extend(data if isinstance(data, list) else [data])
    return records


def group(records):
    """(workload, metric) -> list of values; also the count of bad runs."""
    values = {}
    bad = 0
    for record in records:
        result = record["result"]
        if not result.get("correct") or result.get("failed", 0) > 0:
            bad += 1
        for name, metric in result["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return values, bad


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def verdict(base, change, metric):
    """Verdict on the values of one (workload, metric) in the two sets."""
    if metric is None or "bound" not in metric:
        return "-"
    bound = metric["bound"]
    # Oriented so that a larger value is worse.
    sign = -1 if metric["better"] == "higher" else 1
    base = [sign * v for v in base]
    change = [sign * v for v in change]
    separated = max(change) < min(base) or min(change) > max(base)
    if not separated and max(summarize(base)[3], summarize(change)[3]) > bound:
        return "unresolved"
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    if base_median == 0:
        if change_median == 0:
            return "agree"
        return "WORSE" if change_median > 0 else "better"
    worse = (change_median - base_median) / abs(base_median)
    if worse > bound:
        return "WORSE"
    return "better" if worse < -bound else "agree"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="+", help="run records of the first set")
    parser.add_argument("--vs", nargs="+", default=[], help="run records of the second set")
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    base, bad = group(load_records(args.base))
    change, change_bad = ({}, 0)
    if args.vs:
        change, change_bad = group(load_records(args.vs))
    status = 1 if bad or change_bad else 0
    if bad or change_bad:
        print("runs not correct or with failed ops: first set %d, second set %d"
              % (bad, change_bad))

    header = "%-12s %-36s %5s %12s %12s %12s %8s" % (
        "workload", "metric", "bound", "median", "q1", "q3", "spread")
    if args.vs:
        header += " | %12s %12s %12s %8s  %s" % ("median", "q1", "q3", "spread", "verdict")
    print(header)
    for key in sorted(base):
        workload, name = key
        metric = metrics.get(name)
        bound = "%.2f" % metric["bound"] if metric and "bound" in metric else "-"
        a = summarize(base[key])
        line = "%-12s %-36s %5s %12.4g %12.4g %12.4g %7.1f%%" % (
            workload, name, bound, a[0], a[1], a[2], a[3] * 100)
        if args.vs:
            if key not in change:
                line += " | missing in the second set"
                status = 1
            else:
                b = summarize(change[key])
                v = verdict(base[key], change[key], metric)
                if v == "WORSE":
                    status = 1
                line += " | %12.4g %12.4g %12.4g %7.1f%%  %s" % (
                    b[0], b[1], b[2], b[3] * 100, v)
        elif metric and "bound" in metric and a[3] > metric["bound"]:
            line += "  spread above bound"
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
