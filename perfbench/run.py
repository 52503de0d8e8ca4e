#!/usr/bin/env python3
"""Repository benchmark: builds vsabench from source and runs one workload.

    python3 perfbench/run.py --workload qr_tall --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package (this directory's CMakeLists.txt, which compiles ../src)
into .bench_build/. Each run then:

  * runs `vsabench selftest`, the check of the benchmark's own arithmetic;
  * with --trace 0, starts SETUP_PROCS fresh `vsabench setup` processes, each
    measuring the CPU time of the input conversion plus its cold first call,
    and takes the median as setup_s;
  * runs the workload in one `vsabench run` process of its own, which
    checks every call's output bitwise against a reference.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. The line before it carries the run's detail (sample
count, quartiles, host loop times). The exit code is nonzero when any call
failed or the benchmark could not run.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "vsabench")
WORKLOADS = ("qr_tall", "qr_socket", "batch_small", "chol_2node")
SETUP_PROCS = 3
DEADLINE_S = 170  # every run after the build ends within this


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "--target", "vsabench",
                  "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=880)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail("build failed: " + " ".join(cmd))


def last_json(cmd, deadline):
    """Run one vsabench process; return (exit code, its last JSON line)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before: " + " ".join(cmd))
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("no output (exit %d): %s" % (p.returncode, " ".join(cmd)))
    return p.returncode, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    deadline = time.monotonic() + DEADLINE_S
    code, st = last_json([BINARY, "selftest"], deadline)
    if code != 0:
        fail("self-test failed: %s" % st)

    wl = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCS):
            code, s = last_json([BINARY, "setup"] + wl, deadline)
            if code != 0:
                fail("setup process failed")
            setups.append(s)

    code, run = last_json([BINARY, "run"] + wl + [
        "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    attempted = run["attempted"] + len(setups)
    failed = run["failed"] + sum(s["hash"] != run["ref_hash"] for s in setups)
    metrics = run["metrics"]
    detail = dict(run["detail"])
    if setups:
        setup_s = [s["setup_s"] for s in setups]
        metrics = {
            "call_cpu_s": metrics["call_cpu_s"],
            "gflops_per_cpu": metrics["gflops_per_cpu"],
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": metrics["peak_rss_mb"],
        }
        detail["setup_samples_s"] = setup_s
        detail["setup_wall_samples_s"] = [s["setup_wall_s"] for s in setups]
    correct = code == 0 and failed == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
