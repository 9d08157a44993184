#!/usr/bin/env python3
"""Steadiness check for the benchmark: repeated runs, spreads, two-set diff.

Run a set (each workload once per seed, through run.py) and save it:

    python3 perfbench/steady.py run --seeds 1-10 --out .bench_build/a.json
    python3 perfbench/steady.py run --workloads serve_session --seeds 1-5 \
        --out .bench_build/probe.json

For every metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median.
An end-to-end metric whose spread exceeds its BENCHMARK.json bound is
flagged FAIL, one above a third of its bound WARN; setup_s is flagged like
every other end-to-end metric. Any run reporting correct=false or
failed > 0 is flagged too.

Compare two saved sets of runs of the same code:

    python3 perfbench/steady.py compare .bench_build/a.json .bench_build/b.json

flags every end-to-end metric whose second median is worse than the first
by more than its bound. Exits 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, spec, trace):
    """Prints per-metric statistics of one set; returns the flag count."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    flags = 0
    for workload, results in runs.items():
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print("== %s: %d runs%s" % (workload, len(results),
                                    ", %d FAILED CHECKS" % len(bad) if bad
                                    else ""))
        flags += len(bad)
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            bound = m.get("bound")
            if bound is not None:
                if spread > bound:
                    flag, flags = "FAIL (bound %.2f)" % bound, flags + 1
                elif spread > bound / 3:
                    flag = "WARN (> bound/3 = %.3f)" % (bound / 3)
            print("  %-28s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %6.3f %s" % (m["name"], m["unit"], med, q1, q3,
                                       spread, flag))
    return flags


def compare(first, second, spec):
    flags = 0
    for workload in first["runs"]:
        if workload not in second["runs"]:
            continue
        print("== %s" % workload)
        for m in spec["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in first["runs"][workload])
            b = statistics.median(r["metrics"][m["name"]]["value"]
                                  for r in second["runs"][workload])
            change = (b - a) / a if a else 0.0
            worse = change if m["better"] == "lower" else -change
            flag = ""
            if worse > m["bound"]:
                flag, flags = "WORSE by more than %.2f" % m["bound"], flags + 1
            print("  %-28s %-12.6g -> %-12.6g %+7.2f%% %s" %
                  (m["name"], a, b, 100 * change, flag))
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workloads", default="")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--trace", type=int, default=0)
    run.add_argument("--out", required=True)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    spec = load_spec()

    if args.cmd == "compare":
        with open(args.first) as f:
            first = json.load(f)
        with open(args.second) as f:
            second = json.load(f)
        sys.exit(1 if compare(first, second, spec) else 0)

    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:  # interleaved, so drift hits all alike
            runs[workload].append(run_once(workload, seed,
                                           spec["run_seconds"], args.trace))
    with open(args.out, "w") as f:
        json.dump({"trace": args.trace, "runs": runs}, f)
    sys.exit(1 if summarize(runs, spec, args.trace) else 0)


if __name__ == "__main__":
    main()
