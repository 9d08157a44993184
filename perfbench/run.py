#!/usr/bin/env python3
"""Builds and runs one benchmark workload; prints its result as JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles the library from ../src) into
.bench_build/; later runs only rebuild what changed. The run pins its
settings through the environment (every inherited SQLFACIL_* variable is
dropped), keeps every file it writes under .bench_build/, prints a header
describing the host and settings, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the traced run also writes its spans to
.bench_build/traces/<workload>.jsonl. A per-layer metric of a layer the workload never
calls reads 0. Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve_session", "offline_sdss", "label_disk")
RUN_TIMEOUT_S = 170

# Pinned settings. Two pool threads + the server's one batcher thread + the
# one load-generating thread stay within a 4-core host; the default pool
# size (hardware_concurrency) would oversubscribe it.
PINNED_ENV = {
    "SQLFACIL_THREADS": "2",
    "SQLFACIL_STORAGE": "mem",          # label_disk switches to disk to load
    "SQLFACIL_DURABILITY": "wal",       # default group commit (fsync every 64)
    "SQLFACIL_BUFFER_POOL_PAGES": "64",  # per table, below the big heaps
}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    tmp = os.path.join(BUILD_ROOT, "tmp")  # compiler scratch files
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                  "perfbench"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True)
    except OSError:
        return "unknown (git not available)"
    return out.stdout.strip() if out.returncode == 0 else \
        "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    build()

    run_dir = os.path.join(BUILD_ROOT, "run", "%s-%d" % (args.workload,
                                                         os.getpid()))
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SQLFACIL_")}
    env.update(PINNED_ENV)
    env["SQLFACIL_DATA_DIR"] = run_dir  # disk tables and their WALs
    env["TMPDIR"] = run_dir
    # One file per workload: the latest traced run's spans.
    trace_out = os.path.relpath(
        os.path.join(trace_dir, args.workload + ".jsonl"), ROOT)

    print("# commit: " + commit())
    print("# nproc: %d (usable by this process: %d)" %
          (os.cpu_count(), len(os.sched_getaffinity(0))))
    print("# shards: 1 (ServerOptions::num_shards, serve workloads)")
    for key in sorted(k for k in env if k.startswith("SQLFACIL_")):
        print("# env %s=%s" % (key, os.path.relpath(env[key], ROOT)
                              if key == "SQLFACIL_DATA_DIR" else env[key]))
    sys.stdout.flush()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out", trace_out]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark binary exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail("no value for end-to-end metric " + m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
