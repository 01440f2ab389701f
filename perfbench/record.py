#!/usr/bin/env python3
"""Runs the benchmark and appends one line per run to perfbench/history.jsonl.

    python3 perfbench/record.py [--workloads interactive,bulk,sweep]
        [--seeds 1,2,3] [--trace 0|1|both] [--note TEXT]

Every run measures for the benchmark's `run_seconds` (BENCHMARK.json), so
history lines are comparable line to line.

Each appended line is one JSON object: when it was recorded, the workload,
seed, run length and trace mode, the host descriptor the run printed (nproc,
compiler, build type, native-arch flag, git HEAD), the run's correctness
counts and failed_ratio, and every metric it reported. When a seed is run
both untraced and traced, the traced line also carries `trace_overhead`: for
each end-to-end metric, traced / untraced - 1.

The history file is tracked, so the trend survives across commits: record a
run on the commit you measured, then commit the appended lines with it.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "history.jsonl")


def run_seconds():
    """The benchmark's run length, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        return json.load(spec)["run_seconds"]


def run_once(workload, seed, seconds, trace):
    """Runs one benchmark invocation; returns (host, result) or raises."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d trace %d failed (exit %d): %s"
                           % (workload, seed, trace, proc.returncode,
                              proc.stderr.strip()[-500:]))
    host = {}
    for line in lines:
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
    return host, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="interactive,bulk,sweep")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--note", default="")
    args = parser.parse_args()

    seconds = run_seconds()
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            untraced = None
            for trace in traces:
                host, result = run_once(workload, seed, seconds, trace)
                metrics = {name: metric["value"]
                           for name, metric in result["metrics"].items()}
                line = {
                    "recorded": datetime.datetime.now(
                        datetime.timezone.utc).isoformat(timespec="seconds"),
                    "workload": workload,
                    "seed": seed,
                    "seconds": seconds,
                    "trace": trace,
                    "host": host,
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "failed_ratio": result["failed"] / result["attempted"],
                    "metrics": metrics,
                }
                if args.note:
                    line["note"] = args.note
                if trace == 0:
                    untraced = metrics
                elif untraced is not None:
                    line["trace_overhead"] = {
                        name: metrics["trace." + name] / value - 1.0
                        for name, value in untraced.items()
                        if value and "trace." + name in metrics}
                with open(HISTORY, "a", encoding="utf-8") as history:
                    history.write(json.dumps(line, sort_keys=True) + "\n")
                print("%s seed %d trace %d: correct=%s failed=%d/%d"
                      % (workload, seed, trace, result["correct"],
                         result["failed"], result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
