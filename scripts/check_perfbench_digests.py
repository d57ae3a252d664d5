#!/usr/bin/env python3
"""Check that nova_perfbench's simulated results match the committed digests.

    scripts/check_perfbench_digests.py build-perfbench/nova_perfbench

Each non-comment line of bench/golden/perfbench_digests.txt is the line
`sim_digest WORKLOAD seed=SEED DIGEST` that nova_perfbench prints before
its JSON result. For each, the script runs the binary on that workload and
seed, untraced, for one second, and fails unless the run passes the output
checks of perf_pairs.parse_output ("correct": true, no failed operation)
and prints exactly that line. A change that only makes the simulator
faster must leave every digest as it is.

Exit status: 0 when every workload matches, 1 otherwise.
"""
import argparse
import os
import subprocess
import sys

from perf_pairs import PairsError, parse_output

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "bench", "golden", "perfbench_digests.txt")
SECONDS = 1.0  # The digest comes from the first episode: any length will do.
TIMEOUT_S = 2 * SECONDS + 120  # What perfbench/run.py allows a run.


def check(binary, want):
    """Runs the workload and seed of the golden line `want`; raises
    PairsError unless the run prints exactly that line."""
    workload, seed = want.split()[1], want.split()[2][len("seed="):]
    cmd = [binary, "--workload", workload, "--seed", seed,
           "--seconds", repr(SECONDS), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PairsError("the run exceeded %g s" % TIMEOUT_S)
    if proc.returncode != 0:
        raise PairsError("exited with %d" % proc.returncode)
    line, _ = parse_output(proc.stdout)
    if line != want:
        raise PairsError("printed `%s`" % line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("binary", help="path to nova_perfbench")
    binary = parser.parse_args().binary
    with open(GOLDEN) as f:
        wanted = [line.strip() for line in f
                  if line.strip() and not line.startswith("#")]
    failures = 0 if wanted else 1
    for want in wanted:
        try:
            check(binary, want)
            print("ok    %s" % want, flush=True)
        except PairsError as e:
            print("FAIL  %s: %s" % (want, e), flush=True)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
