#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload cg-mesh --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build/) inside the checkout; scratch containers and span
traces go to its work/ subdirectory. Build output goes to stderr, so the
last line of stdout is the binary's JSON result. Exits non-zero, without
a result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cg-mesh", "spmm-graph", "spgemm-write")
RUN_LIMIT_S = 170      # a run must end within 180 s
BUILD_RUN_LIMIT_S = 870  # the first run in a checkout builds (900 s)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures (once) and builds the binary; returns True on success."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--tiny", action="store_true",
                   help="self-test size (small matrices)")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one byte of one block after setup")
    args = p.parse_args()

    start = time.monotonic()
    bdir = build_dir()
    first_build = not os.path.exists(os.path.join(bdir, "perfbench"))
    if not build(bdir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--work-dir", work]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    limit = BUILD_RUN_LIMIT_S if first_build else RUN_LIMIT_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, limit - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: run exceeded its time limit", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, TypeError):
        ok = False
    if proc.returncode or not ok:
        sys.stderr.write(out)
        print("run.py: perfbench exited %d without a result" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
