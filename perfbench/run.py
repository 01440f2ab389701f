#!/usr/bin/env python3
"""Builds the COBRA benchmark from source and runs one workload.

    python3 perfbench/run.py --workload interactive|bulk|sweep --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. Every run configures and builds
`cobra_perfbench` (the repository's cobra_core plus perfbench/src) in
`.bench_build/perfbench`; only the first compiles everything. The last line
of standard output is the run's JSON result. Build output goes to standard
error. Traced runs also write their spans to
`.bench_build/perfbench/traces/<workload>-<seed>.jsonl`.

    python3 perfbench/run.py --selftest

runs only the benchmark's own self-checks.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cobra_perfbench")
WORKLOADS = ("interactive", "bulk", "sweep")


def build():
    """Configures and builds the benchmark; exits non-zero on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring again is cheap once cached, and repairs a build tree whose
    # earlier configure failed.
    steps = [["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, check=False)
        if result.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            sys.exit(1)


def git_head():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ)
    # Never look for a repository above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    head = result.stdout.strip()
    return head if result.returncode == 0 and head else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.selftest and (args.seed < 0 or args.seconds <= 0):
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    if args.selftest:
        command = [BINARY, "--selftest"]
    else:
        command = [BINARY, "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(args.trace),
                   "--git-head", git_head()]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-out", os.path.join(
                traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
