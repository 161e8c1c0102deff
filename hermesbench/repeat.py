#!/usr/bin/env python3
"""Repeat-runner: how steady is each metric?

Runs the benchmark several times and prints, for every metric, the median,
the quartiles and the spread (interquartile distance as a share of the
median), next to the metric's bound from BENCHMARK.json.

    # 5 runs on seed 1, then 5 on seed 2 (the default), one workload:
    python3 hermesbench/repeat.py --workload qut_stream --runs 5

    # one run on each of ten seeds:
    python3 hermesbench/repeat.py --workload s2t_batch --seeds 1-10 --runs 1

    # traced runs as well; prints the tracing overhead on the headline
    # latency (traced trace.op_ms_p50 minus untraced op_ms_p50):
    python3 hermesbench/repeat.py --workload serve_mixed --runs 3 --traced

Each seed group is reported on its own, then all runs pooled. Run from the
repository root. Per-run result lines are appended to --log when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace, log):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("run failed: %s" % " ".join(cmd))
    line = proc.stdout.strip().splitlines()[-1]
    if log:
        with open(log, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed,
                                "trace": trace, "result": json.loads(line)})
                    + "\n")
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        sys.exit("run was incorrect or had failures: %s" % line)
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(title, runs, specs):
    print("\n== %s (%d runs)" % (title, len(runs)))
    print("%-28s %12s %12s %12s %8s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / med if med else 0.0
        bound = specs.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else (
                "wide" if spread < bound else "OVER")
        print("%-28s %12.6g %12.6g %12.6g %7.1f%% %7s %s" %
              (name, med, q1, q3, 100 * spread,
               "" if bound is None else "%.2f" % bound, flag))
    return {name: statistics.median([r[name] for r in runs])
            for name in runs[0]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2",
                    help="comma list or ranges, e.g. 1,2 or 1-10")
    ap.add_argument("--runs", type=int, default=5, help="runs per seed")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--traced", action="store_true",
                    help="also make traced runs and report the overhead")
    ap.add_argument("--log", default=None, help="append per-run results")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)

    modes = [False, True] if args.traced else [False]
    pooled = {}
    for trace in modes:
        all_runs = []
        for seed in seeds:
            runs = [run_once(args.workload, seed, seconds, trace, args.log)
                    for _ in range(args.runs)]
            all_runs += runs
            if args.runs > 1:
                summarize("%s seed %d%s" % (args.workload, seed,
                                            " traced" if trace else ""),
                          runs, specs)
        pooled[trace] = summarize(
            "%s seeds %s%s, pooled" % (args.workload, args.seeds,
                                       " traced" if trace else ""),
            all_runs, specs)
    if args.traced:
        untraced = pooled[False]["op_ms_p50"]
        traced = pooled[True]["trace.op_ms_p50"]
        print("\ntracing overhead on op_ms_p50: %.6g ms (%.1f%%)" %
              (traced - untraced, 100 * (traced - untraced) / untraced))


if __name__ == "__main__":
    main()
