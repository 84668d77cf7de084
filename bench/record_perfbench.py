#!/usr/bin/env python3
"""Record a BENCH_pr<N>.json file from perfbench runs.

    python3 bench/record_perfbench.py --pr N

Runs every workload in BENCHMARK.json through its benchmark command
(perfbench/run.py: Release build, answer checks), once untraced and once
traced, at seed 1 for run_seconds each, and writes BENCH_pr<N>.json (schema
version 3, see bench/bench_report.hpp) in the repository root. Run it
from the repository root on an otherwise idle machine, then check the
file with bench_validate.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
ENV_LINE = re.compile(r'perfbench: env hardware_threads=(\d+) cpu="(.*)" build=(\S+)')


def run(command, workload, seconds, trace):
    """One benchmark run; returns its BENCH row."""
    args = command + ["--workload", workload, "--seed", str(SEED),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    env = ENV_LINE.search(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or env is None or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} trace {trace}: run failed ({proc.returncode})")
    return {"workload": workload, "seed": SEED, "seconds": seconds, "trace": trace,
            "env": {"hardware_threads": int(env.group(1)), "cpu": env.group(2),
                    "build": env.group(3)},
            **json.loads(lines[-1])}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            runs.append(run(spec["command"], workload, spec["run_seconds"], trace))
            print(f"record: {workload} trace {trace} done", file=sys.stderr, flush=True)
    document = {"bench": "perfbench", "version": 3, "commit": commit, "runs": runs}
    path = os.path.join(ROOT, f"BENCH_pr{args.pr}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
