#!/usr/bin/env python3
"""Builds and runs the fpint benchmark harness for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures|sweep|serve|all --seed N \
        --seconds S --trace 0|1 [--size tiny]

The first run configures and builds the repository and the harness into
.bench_build/ (later runs only re-check the build). The harness prints
every metric by name with its unit, then one JSON result line as the
last line of standard output, and exits nonzero if any output was wrong.
"all" runs the three workloads in turn.
Build output goes to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ["figures", "sweep", "serve"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds the harness and the shipped daemon."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "fpint-perfbench", "fpint-serve"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    # The benchmark builds the program from the checkout it runs in.
    for needed in ("CMakeLists.txt", "src", os.path.join("scripts", "golden")):
        if not os.path.exists(needed):
            fail(f"run from the root of an fpint checkout ({needed} missing)")
    build()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run(w, args) for w in workloads]
    sys.exit(next((c for c in codes if c != 0), 0))


def run(workload, args):
    """Runs the harness for one workload; returns its exit code."""
    run_dir = os.path.join(".bench_build", "run", str(os.getpid()))
    trace_dir = os.path.join(".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [os.path.join(BUILD_DIR, "fpint-perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size,
           "--serve-bin", os.path.join(BUILD_DIR, "fpint", "tools",
                                       "fpint-serve"),
           "--run-dir", run_dir,
           "--golden-dir", os.path.join("scripts", "golden"),
           "--trace-out", os.path.join(
               trace_dir, f"{workload}-seed{args.seed}.jsonl")]
    # Measure the defaults: no FPINT_* override reaches the program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FPINT_")}
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
