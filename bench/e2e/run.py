#!/usr/bin/env python3
"""Builds and runs the wsie end-to-end benchmark.

One run:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds bench/e2e (Release, into build-bench/), runs one workload in its own
process and prints, as the last stdout line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: every end_to_end metric of
BENCHMARK.json untraced (--trace 0), every per_layer metric traced
(--trace 1). Exits 0 once it has printed that line, and non-zero without
printing it when the benchmark cannot be built or run.

A sweep over repetitions:

    python3 bench/e2e/run.py [--reps N] [--seed S] [--workloads a,b]
                             [--trace] [--out FILE] [--baseline NAME]

runs each workload in its own process, alternating the workload order
across repetitions (repetition i uses seed S+i), prints one row per
workload x metric (median, q1, q3, n, spread) and writes every run plus a
host block to FILE (default build-bench/results.json). --trace adds a
traced run per workload and repetition, the per-layer table and the
tracing overhead. --baseline NAME writes
bench/e2e/baseline/<date>-<sha>-NAME.json instead, and is refused on hosts
with fewer than 4 CPUs. A sweep exits 1 when any output check failed.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "wsie_bench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
MIN_NPROC = 4
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the wsie sources (src/) are missing next to bench/e2e")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "wsie_bench"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def run_once(workload, seed, seconds, trace):
    """Runs wsie_bench once; returns (stdout lines, parsed result)."""
    tag = "%s-%d-%d" % (workload, seed, os.getpid())
    command = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
               "--seconds=%s" % seconds,
               "--work-dir=" + os.path.join(BUILD, "work", tag)]
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        command.append("--trace=" + os.path.join(BUILD, "traces", tag + ".json"))
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d did not finish in %d s" % (workload, seed, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s seed %d printed no result (exit %d)" % (workload, seed, done.returncode))
    return lines, result


def single_run(args, spec):
    build()
    lines, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    for line in lines[:-1]:
        print(line)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        print("missing metrics: " + ", ".join(missing))
    metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                           "unit": m["unit"]}
               for m in declared if m["name"] in result["metrics"]}
    print(json.dumps({"correct": bool(result["correct"]) and not missing,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(runs, names):
    """{workload: {metric: (median, q1, q3, n)}} over `runs`."""
    table = {}
    for workload in sorted({r["workload"] for r in runs}):
        rows = {}
        for name in names:
            values = [r["metrics"][name] for r in runs
                      if r["workload"] == workload and name in r["metrics"]]
            if values:
                q1, median, q3 = quartiles(values)
                rows[name] = (median, q1, q3, len(values))
        table[workload] = rows
    return table


def print_table(title, table, units):
    print("\n" + title)
    print("%-16s %-34s %-8s %14s %14s %14s %3s %7s" % (
        "workload", "metric", "unit", "median", "q1", "q3", "n", "spread"))
    for workload, rows in table.items():
        for name, (median, q1, q3, n) in rows.items():
            spread = (q3 - q1) / abs(median) if median else 0.0
            print("%-16s %-34s %-8s %14.6g %14.6g %14.6g %3d %6.1f%%" % (
                workload, name, units.get(name, ""), median, q1, q3, n, 100 * spread))


def git(*argv):
    try:
        return subprocess.run(["git", "-C", ROOT] + list(argv), capture_output=True,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def host_block():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.rstrip("\n").partition("=")
                if sep and ":" in key:
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    if compiler:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()
        compiler = version[0] if version else compiler
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(git("status", "--porcelain")),
    }


def sweep(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = [w for w in wanted if w not in workloads]
        if unknown:
            fail("unknown workloads: " + ", ".join(unknown))
        workloads = wanted
    if args.baseline and (os.cpu_count() or 0) < MIN_NPROC:
        fail("a baseline needs nproc >= %d, this host has %s" % (MIN_NPROC, os.cpu_count()))
    build()
    runs = []
    ok = True
    for rep in range(args.reps):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for workload in order:
            for traced in ([False, True] if args.trace else [False]):
                seed = args.seed + rep
                started = time.monotonic()
                _, result = run_once(workload, seed, args.seconds, traced)
                runs.append({
                    "workload": workload, "seed": seed, "traced": traced,
                    "wall_s": time.monotonic() - started,
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"], "digest": result["digest"],
                    "failed_checks": result["failed_checks"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                })
                status = "ok" if result["correct"] else "FAILED " + "; ".join(
                    result["failed_checks"])
                print("rep %d %-16s seed %-4d %s %s" % (
                    rep, workload, seed, "traced  " if traced else "untraced", status),
                    file=sys.stderr)
                ok = ok and result["correct"]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = [m["name"] for m in spec["end_to_end"]]
    untraced = [r for r in runs if not r["traced"]]
    print_table("End-to-end metrics (untraced runs)", summarize(untraced, e2e), units)
    if args.trace:
        traced = [r for r in runs if r["traced"]]
        layers = [m["name"] for m in spec["per_layer"]]
        print_table("Per-layer metrics (traced runs)", summarize(traced, layers), units)
        base, with_trace = summarize(untraced, e2e), summarize(traced, e2e)
        print("\nTracing overhead (traced median - untraced median)")
        for workload, rows in base.items():
            for name, (median, _, _, _) in rows.items():
                other = with_trace[workload][name][0]
                share = (other - median) / median if median else 0.0
                print("%-16s %-34s %+14.6g %+7.1f%%" % (
                    workload, name, other - median, 100 * share))

    document = {"host": host_block(),
                "settings": {"reps": args.reps, "seed": args.seed,
                             "seconds": args.seconds, "trace": bool(args.trace),
                             "workloads": workloads},
                "runs": runs}
    out = args.out or os.path.join(BUILD, "results.json")
    if args.baseline:
        out = os.path.join(HERE, "baseline", "%s-%s-%s.json" % (
            datetime.date.today().isoformat(), document["host"]["git_sha"][:12],
            args.baseline))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(document, f, indent=1)
        f.write("\n")
    print("\nwrote " + os.path.relpath(out, ROOT))
    if not ok:
        print("an output check failed", file=sys.stderr)
    return 0 if ok else 1


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--workloads", help="comma-separated subset for a sweep")
    parser.add_argument("--out", help="results file of a sweep")
    parser.add_argument("--baseline", help="write the sweep as a named baseline")
    args = parser.parse_args()
    if args.workload:
        return single_run(args, spec)
    return sweep(args, spec)


if __name__ == "__main__":
    sys.exit(main())
