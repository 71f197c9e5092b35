#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
reuse that build. Before measuring, the benchmark's arithmetic self-test
runs. The measurement's report goes to standard output, and its last line
is the result object (see perfbench/README.md). A full record of the run,
with sample counts and provenance, is written to .bench_out/, and the
traced run's spans beside it.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure once; the build step re-runs cmake itself when a listfile
    # changed.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources under %s/src; run from a full "
            "checkout of the repository" % ROOT)
        return 2
    try:
        build()
        subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                       check=True, stdout=sys.stderr, timeout=60)
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: build or self-test failed: %s" % e)
        return 2

    # Start from clean disk state: write-back of the build's objects or of
    # an earlier run's index files would otherwise land in this run's
    # commit fsyncs.
    os.sync()
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(OUT, "work-%d" % os.getpid()),
           "--result-out", os.path.join(OUT, tag + ".json"),
           "--trace-out", os.path.join(OUT, tag + "-spans.json"),
           "--git-describe", git_describe()]
    # The run gets a process group of its own (it starts set-up processes),
    # so a timeout stops all of it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(os.path.join(OUT, "work-%d" % os.getpid()),
                      ignore_errors=True)
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stderr.write(stdout)
        log("perfbench: run failed with status %d" % proc.returncode)
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(stdout)
        log("perfbench: no result line")
        return 4
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        return 4
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
