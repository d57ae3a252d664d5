#!/usr/bin/env python3
"""Report the samples of tools/hostprof, a wall-clock host sampler.

    scripts/hostprof.py PROFILE [PROFILE ...]
    scripts/hostprof.py --preload build/tools/hostprof/libhostprof.so \\
        [--expect PATTERN] -- COMMAND [ARG ...]

The first form reads $HOSTPROF_OUT.<pid> files that a run under
LD_PRELOAD=libhostprof.so wrote. The second runs COMMAND with the sampler
preloaded, writing into a temporary directory, and reports the samples of
COMMAND's own process. Addresses are symbolized with `addr2line -f -C -i`.

The report opens with the process's minor and major page faults and its
system CPU seconds (from getrusage at exit, summed over the profiles read),
then has two tables of ten rows. Top functions attribute each sample to the
function that contains its address (the outermost frame of an inline
chain). Top addresses list single instructions with their inline chain,
innermost first, and the source line of the innermost frame. A module
without line info, such as a stripped libc, names only the nearest
exported symbol below an address, which can be far from the function
that holds it (glibc's _int_malloc reads as __default_morecore). Both
tables therefore label such a sample `<module>+0x<offset> (nearest export
<name>)`.

Samples are wall-clock (a CLOCK_MONOTONIC timer, every 50 us): time a
process spends blocked, such as perfbench waiting for its RSS child, shows
up as samples in system-call frames (libc's wait4, poll, read), and page
faults show up at the instruction that touched the page.

--expect PATTERN exits with status 1 unless some sampled function contains
PATTERN (a regular expression): a check that sampling, module offsets and
symbolization work, not of where the time goes.
"""
import argparse
import collections
import os
import re
import subprocess
import sys
import tempfile

TOP = 10  # Rows per table.


# Header fields the report sums over its profiles: (field, format, what).
# All but `dropped` come from getrusage at exit.
HEADER = (("dropped", "%d", "dropped"), ("minflt", "%d", "minor faults"),
          ("majflt", "%d", "major faults"),
          ("sys_s", "%.3f", "s of system CPU"))


def read_profile(path):
    """Returns {(module, base, offset): samples} and the header's
    {field: value}."""
    samples = collections.Counter()
    header = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                header = dict(field.split("=", 1) for field in line[1:].split()
                              if "=" in field)
                continue
            count, base, offset, module = line.rstrip("\n").split(" ", 3)
            samples[(module, int(base, 16), int(offset, 16))] += int(count)
    return samples, header


def is_fixed_address(module):
    """True for an ET_EXEC file, which addr2line reads at absolute addresses."""
    try:
        with open(module, "rb") as f:
            head = f.read(18)
    except OSError:
        return False
    return head[:4] == b"\x7fELF" and int.from_bytes(head[16:18], "little") == 2


def symbolize(module, addresses):
    """{address: [(function, location), ...]} innermost frame first."""
    if not os.path.isfile(module):
        return {}
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", module],
        input="".join("%#x\n" % a for a in addresses),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    chains = {}
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        address = int(lines[i], 16)
        i += 1
        frames = []
        while i < len(lines) and not lines[i].startswith("0x"):
            frames.append((lines[i], lines[i + 1] if i + 1 < len(lines) else "??"))
            i += 2
        chains[address] = frames
    return chains


def has_lines(frames):
    return any(not where.startswith("??") for _, where in frames)


def label(key, frames):
    """The function a sample is in: the outermost frame of its inline chain,
    or, in a module without line info, its address and nearest export."""
    if has_lines(frames):
        return frames[-1][0]
    module, _, offset = key
    address = "%s+%#x" % (os.path.basename(module), offset)
    if frames and frames[-1][0] != "??":
        return "%s (nearest export %s)" % (address, frames[-1][0])
    return address


def report(samples, header):
    """Prints the header's sums and both tables; returns every sampled
    function."""
    total = sum(samples.values())
    by_module = collections.defaultdict(set)
    for module, base, offset in samples:
        by_module[(module, base)].add(offset)
    chains = {}
    for (module, base), offsets in by_module.items():
        shift = base if is_fixed_address(module) else 0
        found = symbolize(module, sorted(o + shift for o in offsets))
        for offset in offsets:
            chains[(module, base, offset)] = found.get(offset + shift, [])

    functions = collections.Counter()
    for key, count in samples.items():
        functions[label(key, chains[key])] += count

    print("hostprof: %d samples; %s" % (total, ", ".join(
        (fmt + " %s") % (header[field], what) if field in header
        else "%s not recorded" % what for field, fmt, what in HEADER)))
    print("\ntop functions (samples at addresses each contains):")
    ranked = functions.most_common()
    for name, count in ranked[:TOP]:
        print("  %5.1f%% %8d  %s" % (100.0 * count / total, count, name))
    print("\ntop addresses (inline chain, innermost first):")
    for key, count in samples.most_common(TOP):
        module, _, offset = key
        frames = chains[key]
        if has_lines(frames):
            name = "%s+%#x  %s  [%s]" % (
                os.path.basename(module), offset,
                " <- ".join(f for f, _ in frames), frames[0][1])
        else:
            name = label(key, frames)
        print("  %5.1f%% %8d  %s" % (100.0 * count / total, count, name))
    return [name for name, _ in ranked]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("profiles", nargs="*", help="$HOSTPROF_OUT.<pid> files")
    parser.add_argument("--preload", help="libhostprof.so; run the command")
    parser.add_argument("--expect", metavar="PATTERN")
    argv = sys.argv[1:]
    command = []
    if "--" in argv:
        command = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    args = parser.parse_args(argv)
    if bool(args.preload) != bool(command) or (command and args.profiles):
        parser.error("give PROFILE files, or --preload LIB -- COMMAND")
    if not command and not args.profiles:
        parser.error("no profile to read")

    samples = collections.Counter()
    header = {}

    def add(path):
        more, fields = read_profile(path)
        samples.update(more)
        for field, _, _ in HEADER:
            if field in fields:
                header[field] = header.get(field, 0) + float(fields[field])

    if command:
        with tempfile.TemporaryDirectory() as tmp:
            prefix = os.path.join(tmp, "prof")
            env = dict(os.environ, HOSTPROF_OUT=prefix,
                       LD_PRELOAD=os.path.abspath(args.preload))
            proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
            if proc.wait() != 0:
                print("hostprof: the command exited with %d" % proc.returncode,
                      file=sys.stderr)
                return 1
            path = "%s.%d" % (prefix, proc.pid)
            if not os.path.isfile(path):
                print("hostprof: the command wrote no profile", file=sys.stderr)
                return 1
            add(path)
    for path in args.profiles:
        add(path)
    if not samples:
        print("hostprof: no samples", file=sys.stderr)
        return 1

    functions = report(samples, header)
    if args.expect:
        if not any(re.search(args.expect, name) for name in functions):
            print("hostprof: no sampled function matches %r" % args.expect,
                  file=sys.stderr)
            return 1
        print("\nhostprof: a sampled function matches %r" % args.expect)
    return 0


if __name__ == "__main__":
    sys.exit(main())
