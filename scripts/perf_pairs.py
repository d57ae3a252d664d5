#!/usr/bin/env python3
"""Run the benchmark's pair protocol on a base revision and a change.

    scripts/perf_pairs.py --base HEAD --change WORKTREE \\
        --workload compile_shadow --seed 42 --seconds 20 --pairs 10

Each side is checked out into its own git worktree under .perf_pairs/
(git-ignored; kept between calls so perfbench rebuilds incrementally) and
runs `python3 perfbench/run.py` there. The pairs alternate which side runs
first. --change WORKTREE measures the working tree as it is, uncommitted
and untracked (but not ignored) files included, without touching the
index or any ref.

Every run must report "correct": true and no failed operation, and every
run of both sides must print the same sim_digest. For each end-to-end
metric BENCHMARK.json names, the script prints each side's median and
quartiles, the pairs the change won, and a verdict:

  gain        there are at least ten pairs, the change wins at least nine
              tenths of them, and the medians differ by more than the
              base's quartile distance;
  worse       the change's median is worse than the base's by more than the
              metric's bound, with the spread within the bound or every
              change run worse than every base run;
  unresolved  the spread (quartile distance over median, either side) is
              wider than the bound, unless every change run is better than
              every base run;
  no worse    otherwise.

Exit status: 0, or 1 when a run fails or the digests differ, or 2 when a
metric's verdict is "worse". The metrics, their bounds and the benchmark's
"paths" come from the base revision's BENCHMARK.json. The script refuses
to compare revisions whose benchmark files (BENCHMARK.json and its
"paths") differ, and it never writes to them.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

WORKTREE = "WORKTREE"
PAIRS_DIR = ".perf_pairs"
MIN_GAIN_PAIRS = 10  # Fewer pairs never support a claimed gain.


class PairsError(Exception):
    pass


# --- statistics, verdicts and run output (pure; tested on canned inputs) ---

def quartiles(values):
    """Returns (q1, median, q3), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better_sign(better):
    if better not in ("lower", "higher"):
        raise PairsError("unknown direction %r" % better)
    return 1.0 if better == "lower" else -1.0


def pairs_won(base, change, better):
    """Pairs in which the change reads strictly better; ties count for
    neither side."""
    sign = better_sign(better)
    return sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)


def relative(delta, reference):
    if reference == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(reference)


def verdict(base, change, better, bound):
    """Classifies one metric's paired runs: "gain", "worse", "unresolved"
    or "no worse" (see the module docstring)."""
    if len(base) != len(change) or not base:
        raise PairsError("verdict needs one base and one change run per pair")
    sign = better_sign(better)
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    won = pairs_won(base, change, better)
    if (len(base) >= MIN_GAIN_PAIRS and won * 10 >= 9 * len(base)
            and sign * (b_med - c_med) > b_q3 - b_q1):
        return "gain"
    worse_by = relative(sign * (c_med - b_med), b_med)
    spread = max(relative(b_q3 - b_q1, b_med), relative(c_q3 - c_q1, c_med))
    if sign > 0:
        all_better = max(change) < min(base)
        all_worse = min(change) > max(base)
    else:
        all_better = min(change) > max(base)
        all_worse = max(change) < min(base)
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    return "no worse"


def summarize(metrics, base_runs, change_runs):
    """One row per end-to-end metric. `metrics` are BENCHMARK.json's
    end_to_end entries; each run is a {name: value} dict."""
    rows = []
    for m in metrics:
        name = m["name"]
        base = [run[name] for run in base_runs]
        change = [run[name] for run in change_runs]
        rows.append({
            "metric": name,
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "base": quartiles(base),
            "change": quartiles(change),
            "won": pairs_won(base, change, m["better"]),
            "pairs": len(base),
            "verdict": verdict(base, change, m["better"], m["bound"]),
        })
    return rows


def format_rows(rows):
    def cell(q):
        q1, med, q3 = q
        return "%.4g [%.4g, %.4g]" % (med, q1, q3)

    header = ("metric", "unit", "better", "bound", "base median [q1, q3]",
              "change median [q1, q3]", "won", "verdict")
    table = [header]
    for r in rows:
        table.append((r["metric"], r["unit"], r["better"], "%g" % r["bound"],
                      cell(r["base"]), cell(r["change"]),
                      "%d/%d" % (r["won"], r["pairs"]), r["verdict"]))
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip()
                     for line in table)


def parse_output(stdout):
    """Splits one nova_perfbench run's standard output (perfbench/run.py
    passes it through) into its `sim_digest WORKLOAD seed=SEED DIGEST` line
    and its JSON result, the last two lines. Raises PairsError unless the
    result reports "correct": true and no failed operation."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise PairsError("expected a sim_digest line and a JSON result, got "
                         "%d line(s)" % len(lines))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise PairsError("the last output line is not JSON: %s"
                         % lines[-1][:200])
    if result.get("correct") is not True or result.get("failed", 0) != 0:
        raise PairsError("correct=%s, failed=%s of %s" % (
            result.get("correct"), result.get("failed"),
            result.get("attempted")))
    return lines[-2].strip(), result


# --- git and the benchmark runs --------------------------------------------

def git(root, *args, env=None):
    proc = subprocess.run(["git", "-C", root] + list(args), env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise PairsError("git %s failed: %s" % (" ".join(args),
                                                proc.stderr.strip()))
    return proc.stdout.strip()


def resolve(root, rev):
    """A commit id for `rev`; WORKTREE snapshots the working tree into a
    dangling commit through a scratch index."""
    if rev != WORKTREE:
        return git(root, "rev-parse", "--verify", rev + "^{commit}")
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git(root, "read-tree", "HEAD", env=env)
        git(root, "add", "-A", env=env)
        tree = git(root, "write-tree", env=env)
    who = {"GIT_%s_%s" % (role, field): "perf_pairs"
           for role in ("AUTHOR", "COMMITTER") for field in ("NAME", "EMAIL")}
    return git(root, "commit-tree", tree, "-p", "HEAD", "-m",
               "perf_pairs: working tree", env=dict(os.environ, **who))


def checkout(root, side, commit):
    path = os.path.join(root, PAIRS_DIR, side)
    if os.path.isdir(path):
        git(path, "checkout", "--quiet", "--detach", "--force", commit)
    else:
        git(root, "worktree", "add", "--quiet", "--detach", path, commit)
    return path


def run_once(path, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise PairsError("%s: run.py exited with %d\n%s" % (
            path, proc.returncode, proc.stderr[-2000:]))
    try:
        digest_line, result = parse_output(proc.stdout)
    except PairsError as e:
        raise PairsError("%s: %s" % (path, e))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return {"digest": digest_line.split()[-1], "metrics": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--change", required=True,
                        help="changed revision, or WORKTREE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--pairs", required=True, type=int)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    root = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse",
               "--show-toplevel")
    commits = {"base": resolve(root, args.base),
               "change": resolve(root, args.change)}
    bench = json.loads(git(root, "show", commits["base"] + ":BENCHMARK.json"))
    bench_files = ["BENCHMARK.json"] + list(bench["paths"])
    if git(root, "diff", "--name-only", commits["base"], commits["change"],
           "--", *bench_files):
        raise PairsError("the sides' benchmark files differ (%s): compare "
                         "them with identical benchmark code"
                         % ", ".join(bench_files))
    paths = {side: checkout(root, side, c) for side, c in commits.items()}
    print("perf_pairs: %s seed=%d %gs, %d pairs; base %s = %s, change %s = %s"
          % (args.workload, args.seed, args.seconds, args.pairs, args.base,
             commits["base"][:12], args.change, commits["change"][:12]),
          flush=True)

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            run = run_once(paths[side], args)
            runs[side].append(run)
            print("  pair %d %-6s %s" % (i + 1, side, " ".join(
                "%s=%.6g" % kv for kv in sorted(run["metrics"].items()))),
                flush=True)

    digests = {r["digest"] for side in runs.values() for r in side}
    rows = summarize(bench["end_to_end"],
                     [r["metrics"] for r in runs["base"]],
                     [r["metrics"] for r in runs["change"]])
    print("sim_digest %s" % " ".join(sorted(digests)))
    print(format_rows(rows))
    if len(digests) != 1:
        raise PairsError("sim_digest differs between runs: %s"
                         % ", ".join(sorted(digests)))
    return 2 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PairsError as e:
        print("perf_pairs: %s" % e, file=sys.stderr)
        sys.exit(1)
