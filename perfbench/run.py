#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/NOTES.md).

One workload, as the benchmark contract calls it:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

builds vf_perfbench into .bench_build (CMake, Release, the repository's own
build definition), runs the workload in its own process, and prints the
program's metric table followed, as the last line, by the result object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Every workload, end-to-end and traced, each in its own process:

    python3 perfbench/run.py --all --seed 1 --seconds 10

A failed build, a crashed or timed-out run, or a result whose metric names
or units differ from BENCHMARK.json exits non-zero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "vf_perfbench")
WORKLOADS = ["grid", "serve_hot", "serve_campaign", "insitu"]
# A run must end within 180 s; the program itself is given a little less.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool decide what is stale."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "vf_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def expected_metrics(trace):
    """Metric name -> unit from BENCHMARK.json (None when absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run(workload, seed, seconds, trace):
    """Run one workload; return (program output lines, result object).
    The last line is the result line as the program printed it."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(ROOT, ".bench_work",
                                     f"{workload}-{os.getpid()}"),
           "--trace-out", os.path.join(ROOT, ".bench_out",
                                       f"trace-{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        fail(f"{workload}: exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"{workload}: no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    want = expected_metrics(trace)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            fail(f"{workload}: metrics differ from BENCHMARK.json "
                 f"(missing {missing}, extra {extra}, or units differ)")
    return lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.all == (args.workload is not None):
        fail("give exactly one of --workload or --all")

    build()
    if not args.all:
        lines, _ = run(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))  # the program's result line comes last
        return

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run(workload, args.seed, args.seconds, trace)
            print("\n".join(lines[:-1]))
            ok = ok and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
