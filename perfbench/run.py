#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One run:
    python3 perfbench/run.py --workload dataset_scoring --seed 1 --seconds 20 --trace 0

builds the library and the benchmark program from source (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
helper self-test once per build, builds or reuses the seeded inputs under
.bench_work/, runs the workload and passes its result line through as the
last line of standard output. Run from the repository root.

A/A check (two sets of runs of one build, spread and drift per metric
against the bounds in BENCHMARK.json):
    python3 perfbench/run.py --aa --runs 10 [--workloads a,b] [--seconds S]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s (900 s when it builds the program);
# an up-to-date build check takes about a second.
RUN_LIMIT_S = 170.0


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def quiet(command, cwd=None):
    """Run a build step with all of its output on stderr; raise on failure."""
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False, cwd=cwd)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, command)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build():
    """Configure and build; returns the build directory."""
    if not (os.path.isdir(os.path.join(ROOT, "include", "wm"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"library sources not found next to {HERE}")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release", *generator])
    quiet(["cmake", "--build", out, "-j", "4"])
    selftest = os.path.join(out, "perfbench_selftest")
    stamp = os.path.join(out, "selftest.passed")
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(selftest)):
        quiet([selftest], cwd=out)
        with open(stamp, "w", encoding="utf-8") as handle:
            handle.write("ok\n")
    return out


def run_once(args):
    out = build()
    command = [os.path.join(out, "wm_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", os.path.abspath(".bench_work"),
               "--offered-pps", str(args.offered_pps)]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded its time limit")
        return 3
    lines = [line for line in stdout.splitlines() if line.strip()]
    if lines:
        print(lines[-1], flush=True)
    return proc.returncode


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric, first, second):
    """Share by which median `second` is worse than `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def aa(args):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    build()
    ok = True
    for workload in workloads:
        sets = []
        for label in ("A", "B"):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in range(1, args.runs + 1):
                command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                           "--offered-pps", str(args.offered_pps)]
                proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else {"correct": False}
                if proc.returncode != 0 or not result["correct"]:
                    log(f"{workload} set {label} seed {seed}: run failed")
                    ok = False
                    continue
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                log(f"{workload} set {label} seed {seed} done")
            sets.append(values)
        print(f"\n{workload}: metric, spread A, spread B, drift B vs A, bound")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            spread_a = quartile_spread(sets[0][name])
            spread_b = quartile_spread(sets[1][name])
            drift = worse_by(metric, statistics.median(sets[0][name]),
                             statistics.median(sets[1][name]))
            log(f"{workload} {name}: A {sets[0][name]} B {sets[1][name]}")
            spread = max(spread_a, spread_b)
            good = drift <= bound and spread <= bound
            steady = spread <= bound / 3
            ok &= good
            print(f"  {name:24s} {spread_a:8.4f} {spread_b:8.4f} {drift:+8.4f} {bound:6.3f}"
                  f"  {'ok' if good else 'FAIL'}{'' if steady else ' (spread above bound/3)'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--offered-pps", type=float, default=300000.0)
    parser.add_argument("--aa", action="store_true", help="run the A/A steadiness check")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    try:
        if args.aa:
            return aa(args)
        if not args.workload or args.seconds <= 0:
            parser.error("--workload and --seconds are required")
        return run_once(args)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as error:
        log(f"error: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
