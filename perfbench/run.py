#!/usr/bin/env python3
"""Build and run one workload of the NOVA reproduction's benchmark.

    python3 perfbench/run.py --workload compile_ept --seed 42 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
benchmark (the repository's src/ libraries, the figures' shared harness and
perfbench/*.cc) into .bench_build/; later calls rebuild incrementally. The
last line of standard output is the JSON result; build output goes to
standard error. --chrome-trace PREFIX (traced runs only) also writes
PREFIX.host.json and PREFIX.sim.json for Perfetto. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("compile_ept", "compile_shadow", "disk_4k", "migrate")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "nova_perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("src/CMakeLists.txt", "bench/scenario.cc", "bench/common.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("%s is missing: run from the root of a full checkout" % needed)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "nova_perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--chrome-trace", metavar="PREFIX")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    # A run measures for --seconds; set-up samples, checks and the traced
    # run's probes, set-up split and native run come on top.
    timeout_s = 2 * args.seconds + 120
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.chrome_trace:
        cmd += ["--chrome-trace", args.chrome_trace]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("the run exceeded %g s" % timeout_s)
    if proc.returncode != 0:
        fail("nova_perfbench exited with %d" % proc.returncode)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
