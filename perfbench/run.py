#!/usr/bin/env python3
"""Builds and runs the repository benchmark (README.md in this directory).

    python3 perfbench/run.py --workload mine-sparse --seed 1 --seconds 40 \
        --trace 0

Run it from the root of a checkout. The first call configures and builds
dmc_perfbench from the sources under src/ into .bench_build/perfbench;
later calls only let the build tool confirm it is up to date. Each run
gets a private work directory under .bench_build/runs, removed when the
run ends; a traced run keeps its spans in .bench_build/traces. The last
line of stdout is the result object. Without the sources, or when the
build or the run fails, the script exits non-zero and prints no result.
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
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("mine-sparse", "mine-dense")
# A run must end within 180 s; leave room for the up-to-date build check.
RUN_TIMEOUT_S = 165


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no dmc sources under " + os.path.join(ROOT, "src"))
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "dmc_perfbench")


def run_benchmark(binary, args):
    work_dir = os.path.join(
        BUILD_ROOT, "runs",
        "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
               "--trace=%d" % args.trace, "--workdir=" + work_dir]
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command.append("--trace-out=" + os.path.join(
            trace_dir, "%s-s%d.jsonl" % (args.workload, args.seed)))
    # Own process group, so a timeout also stops the shard workers.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError("benchmark exited with %d" % child.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
        lines = run_benchmark(binary, args)
    except (RuntimeError, OSError, ValueError,
            subprocess.CalledProcessError) as error:
        log("error: %s" % error)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
