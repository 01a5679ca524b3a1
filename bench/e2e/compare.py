#!/usr/bin/env python3
"""Compares two sweeps of bench/e2e/run.py against the BENCHMARK.json bounds.

    python3 bench/e2e/compare.py OLD.json NEW.json

Every workload x end-to-end metric row gets one verdict, from the untraced
runs of each side:

  unresolved  either side's spread between quartiles, as a share of its
              median, is wider than the metric's bound -- unless every new
              run reads better than every old run;
  worse       the new median is worse than the old by more than the bound;
  improved    the new side wins at least nine tenths of the runs paired in
              order (ties count for neither), and the medians differ by
              more than the old side's quartile spread;
  unchanged   otherwise.

Exits 1 when a row is worse, a metric is missing on one side, or the share
of failed operations of a workload rose; 0 otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(old, new, better, bound):
    """Returns (verdict, relative change of the median in the worse direction)."""
    sign = 1.0 if better == "lower" else -1.0
    o1, old_median, o3 = quartiles(old)
    new_median = quartiles(new)[1]
    if old_median == 0:
        worse_by = 0.0 if new_median == 0 else float("inf")
    else:
        worse_by = sign * (new_median - old_median) / abs(old_median)
    all_better = all(sign * (n - o) < 0 for n in new for o in old)
    if max(relative_spread(old), relative_spread(new)) > bound and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    if wins >= 0.9 * len(pairs) and sign * (old_median - new_median) > o3 - o1:
        return "improved", worse_by
    return "unchanged", worse_by


def failed_share(runs, workload):
    attempted = sum(r["attempted"] for r in runs if r["workload"] == workload)
    failed = sum(r["failed"] for r in runs if r["workload"] == workload)
    return failed / attempted if attempted else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sides = []
    for path in argv[1:]:
        with open(path) as f:
            sides.append([r for r in json.load(f)["runs"] if not r["traced"]])
    old_runs, new_runs = sides
    print("%-16s %-18s %-6s %6s %14s %14s %9s  %s" % (
        "workload", "metric", "better", "bound", "old median", "new median",
        "worse by", "verdict"))
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if not any(r["workload"] == workload for r in old_runs + new_runs):
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = [r["metrics"][name] for r in old_runs
                   if r["workload"] == workload and name in r["metrics"]]
            new = [r["metrics"][name] for r in new_runs
                   if r["workload"] == workload and name in r["metrics"]]
            if not old or not new:
                print("%-16s %-18s missing on one side" % (workload, name))
                regressed = True
                continue
            result, worse_by = verdict(old, new, metric["better"], metric["bound"])
            regressed = regressed or result == "worse"
            print("%-16s %-18s %-6s %5.0f%% %14.6g %14.6g %+8.1f%%  %s" % (
                workload, name, metric["better"], 100 * metric["bound"],
                quartiles(old)[1], quartiles(new)[1], 100 * worse_by, result))
        old_failed = failed_share(old_runs, workload)
        new_failed = failed_share(new_runs, workload)
        if new_failed > old_failed:
            print("%-16s failed operations rose: %.3g -> %.3g" % (
                workload, old_failed, new_failed))
            regressed = True
    print("\nresult: %s" % ("REGRESSED" if regressed else "no regression"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
