#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 perf/run.py --workload solve-medium --seed 1 --seconds 20 --trace 0

Run from the repository root. Everything the benchmark leaves behind goes
under .bench_build/ in that root:

    .bench_build/cmake/    Release build of perf/ (and the library under it)
    .bench_build/data/     molecule datasets (PICASSO_DATA_DIR disk cache)
    .bench_build/traces/   span logs of --trace 1 runs
    .bench_build/hashes.json  coloring hash of every (dataset, seed) solved

Each run works in its own .bench_build/run-<pid>/ directory (spill files,
unix sockets), removed when the run ends. The last stdout line is the
workload's JSON result; the line before it is its report (host and plan
facts, sample counts, failure breakdown). A key that hashes differently
from an earlier run in the same tree counts as a failed solve.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
DATA_DIR = os.path.join(BUILD, "data")
TRACE_DIR = os.path.join(BUILD, "traces")
HASH_FILE = os.path.join(BUILD, "hashes.json")
BINARY = os.path.join(CMAKE_DIR, "picasso_perf")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perf/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def sh(cmd, timeout=None):
    """Runs a build or preparation step with its output on stderr."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, timeout=timeout)
    if result.returncode != 0:
        fail("step failed (%d): %s" % (result.returncode, " ".join(cmd)))


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("library sources not found: %s is missing" % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perf"), "-B",
                     CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        sh(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    sh(["cmake", "--build", CMAKE_DIR, "--target", "picasso_perf", "-j", jobs])


def check_hashes(workload, hashes):
    """Compares this run's key hashes with every earlier run in the tree;
    returns the number of keys that changed, and records the new ones."""
    try:
        with open(HASH_FILE) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    changed = 0
    for key, value in hashes.items():
        name = workload + "|" + key
        if known.setdefault(name, value) != value:
            changed += 1
            print("FAIL: %s hashed %s, an earlier run %s"
                  % (name, value, known[name]), file=sys.stderr)
    tmp = HASH_FILE + ".%d" % os.getpid()
    with open(tmp, "w") as f:
        json.dump(known, f)
    os.replace(tmp, HASH_FILE)
    return changed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(DATA_DIR, exist_ok=True)
    sh([BINARY, "prepare", "--workload", args.workload, "--data-dir",
        DATA_DIR])

    work_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [BINARY, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--data-dir", DATA_DIR,
           "--work-dir", work_dir]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    # Relative paths keep the unix socket path short wherever the tree is.
    cmd = [os.path.relpath(c, ROOT) if c.startswith(BUILD) else c
           for c in cmd]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited %d without a result" % proc.returncode)
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    changed = check_hashes(args.workload, report["hashes"])
    if changed:
        result["failed"] += changed
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
