#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest     # the correctness gate counts faults
    python3 perfbench/run.py --anchor       # executed Fig. 3 point (SF 0.01)

Run from the repository root. The first call configures and builds the
sjoin libraries and the perfbench binary (perfbench/CMakeLists.txt) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to standard error, so the last
line of standard output is the binary's JSON result. A traced run writes its
span dump next to the build. The exit code is the binary's: 0 only when
every result was correct and the workload's self-checks held.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("adhoc_overcache", "dashboard_tcp", "churn_dist")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--anchor", action="store_true")
    args = parser.parse_args()
    if not (args.selftest or args.anchor or args.workload):
        parser.error("one of --workload, --selftest, --anchor is required")

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, "perfbench")]
    if args.selftest:
        cmd.append("--selftest")
    elif args.anchor:
        cmd += ["--anchor", "--seed", str(args.seed)]
    else:
        trace_out = os.path.join(
            out, f"trace-{args.workload}-seed{args.seed}.json")
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--git-sha", git_sha()]
        if args.trace:
            cmd += ["--trace-out", trace_out]
    timeout = None if args.anchor else RUN_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
